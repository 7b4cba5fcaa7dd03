package engine

import (
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/value"
)

// UseReference runs every SELECT of e on the row-at-a-time reference engine
// (oracle_test.go) when on, on the batch pipeline when off: the one way the
// package's tests, internal and external, reach the oracle.
func UseReference(e *Engine, on bool) {
	if !on {
		e.ref.Store(nil)
		return
	}
	var r reference = oracle{}
	e.ref.Store(&r)
}

// DirectCells is the most cells a group directory may have for a fold over
// rows input rows: past it the fold's key takes the hash route.
func DirectCells(rows int) int { return directCells(rows) }

// BenchEngine and CASEFanoutSQL are the engine benchmarks' table of rows
// rows and the CASE fan-out benchmark's statement over it.
func BenchEngine(tb testing.TB, rows int) *Engine { return benchEngine(tb, rows) }

var CASEFanoutSQL = caseFanoutSQL

// FamilyRoutes runs fn with every fold of e planned as the fold operator
// plans it — the fold itself runs on the reference — and returns the key
// route, direct or hash, of each arm family those plans hold, in plan order.
func FamilyRoutes(e *Engine, fn func() error) ([]string, error) {
	rec, err := recordFolds(e, fn)
	return rec.routes, err
}

// ProjectedOps runs fn with every fold of e on the reference and returns, per
// fold whose groups a projector takes, the column op each item compiled to:
// "gather", "divide" or "eval".
func ProjectedOps(e *Engine, fn func() error) ([][]string, error) {
	rec, err := recordFolds(e, fn)
	return rec.ops, err
}

// DistinctAfter runs SELECT DISTINCT cols FROM table on the fold operator at
// parallelism par, with between run once the fold is planned and before it
// runs, as a writer racing the statement would. It returns the distinct keys
// in first-appearance order and the source rows the fold read.
func DistinctAfter(e *Engine, table string, cols []string, par int, between func() error) ([][]value.Value, int64, error) {
	tab, err := e.ResolveTable(table)
	if err != nil {
		return nil, 0, err
	}
	scan := newTableScan(tab, table)
	keys := make([]expr.Expr, len(cols))
	for i, c := range cols {
		if keys[i], err = bindExpr(expr.Col(c), scan.sch); err != nil {
			return nil, 0, err
		}
	}
	op := planFold(newPipeline(scan), keys, nil)
	if err := between(); err != nil {
		return nil, 0, err
	}
	part, err := op.fold(execCtx{par: par})
	if err != nil {
		return nil, 0, err
	}
	out := &collector{}
	if _, err := op.emit(part, nil, out); err != nil {
		return nil, 0, err
	}
	return out.boxedRows(), part.consumed, nil
}

func recordFolds(e *Engine, fn func() error) (*foldRecorder, error) {
	rec := &foldRecorder{}
	var r reference = rec
	e.ref.Store(&r)
	defer e.ref.Store(nil)
	return rec, fn()
}

type foldRecorder struct {
	oracle
	mu     sync.Mutex
	routes []string
	ops    [][]string
}

func (r *foldRecorder) fold(in planNode, keys []expr.Expr, specs []aggSpec, ec execCtx, out rowSink) (int, error) {
	op := planFold(newPipeline(in), keys, specs)
	r.mu.Lock()
	for _, f := range op.families {
		r.routes = append(r.routes, f.tab.route())
	}
	if p, ok := out.(*projector); ok {
		names := make([]string, len(p.ops))
		for i, o := range p.ops {
			names[i] = [...]string{opEval: "eval", opGather: "gather", opDivide: "divide"}[o.kind]
		}
		r.ops = append(r.ops, names)
	}
	r.mu.Unlock()
	return r.oracle.fold(in, keys, specs, ec, out)
}
