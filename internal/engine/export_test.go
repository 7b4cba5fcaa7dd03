package engine

import (
	"sync"
	"testing"

	"repro/internal/expr"
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
	rec := &routeRecorder{}
	var r reference = rec
	e.ref.Store(&r)
	defer e.ref.Store(nil)
	err := fn()
	return rec.routes, err
}

type routeRecorder struct {
	oracle
	mu     sync.Mutex
	routes []string
}

func (r *routeRecorder) fold(in planNode, keys []expr.Expr, specs []aggSpec, ec execCtx, out rowSink) (int, error) {
	op := planFold(newPipeline(in), keys, specs)
	r.mu.Lock()
	for _, f := range op.families {
		r.routes = append(r.routes, f.tab.route())
	}
	r.mu.Unlock()
	return r.oracle.fold(in, keys, specs, ec, out)
}
