package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
)

// The CASE strategies evaluate N boolean conjunctions per input row even
// though the conjunctions are disjoint — one row falls in exactly one result
// column. The paper observes the optimizer could map a row to its column in
// O(1) with a hash table. These native steps implement that proposal: a
// single scan of F hashing (D1..Dj) to a group and (Dj+1..Dk) to a column
// index. They exist as an ablation of the CASE evaluation cost; results are
// identical to the SQL plans.

// planHpctHashPivot finishes a direct Hpct plan with a native pivot step.
func (p *Planner) planHpctHashPivot(plan *Plan, a *analysis, call *expr.AggCall,
	combos []combo, groupNames, valueNames []string, extras []int, extraNames []string) (*Plan, error) {

	if len(extras) > 0 {
		return nil, fmt.Errorf("core: HashPivot does not support extra aggregate terms")
	}
	fh, err := p.emitPivotTable(plan, a, groupNames, valueNames, storage.TypeFloat)
	if err != nil {
		return nil, err
	}
	groupCols := append([]string{}, a.groupCols...)
	where := a.where
	plan.Steps = append(plan.Steps, Step{
		Purpose: "hash-pivot F into FH (one O(1) column lookup per row)",
		native: func(ctx context.Context, eng *engine.Engine, parallelism int, span *obs.Span) error {
			return runPivot(ctx, eng, a.table, fh, groupCols, call, combos, where, true, nil, parallelism, span)
		},
	})
	p.finishHorizontalPlan(plan, a, groupNames, valueNames, nil, singleHolder(fh, valueNames, nil))
	return plan, nil
}

// planHaggHashPivot finishes a direct Hagg plan with a native pivot step.
func (p *Planner) planHaggHashPivot(plan *Plan, a *analysis, call *expr.AggCall,
	combos []combo, groupNames, valueNames []string) (*Plan, error) {

	if call.Distinct {
		return nil, fmt.Errorf("core: HashPivot does not support count(DISTINCT …)")
	}
	fh, err := p.emitPivotTable(plan, a, groupNames, valueNames, aggResultType(call, a.schema))
	if err != nil {
		return nil, err
	}
	groupCols := append([]string{}, a.groupCols...)
	where := a.where
	var deflt *value.Value
	if call.Default != nil {
		v := call.Default.Val
		deflt = &v
	}
	plan.Steps = append(plan.Steps, Step{
		Purpose: "hash-pivot F into FH (one O(1) column lookup per row)",
		native: func(ctx context.Context, eng *engine.Engine, parallelism int, span *obs.Span) error {
			return runPivot(ctx, eng, a.table, fh, groupCols, call, combos, where, false, deflt, parallelism, span)
		},
	})
	p.finishHorizontalPlan(plan, a, groupNames, valueNames, nil, singleHolder(fh, valueNames, nil))
	return plan, nil
}

func singleHolder(table string, valueNames, extraNames []string) map[string]string {
	m := make(map[string]string, len(valueNames)+len(extraNames))
	for _, n := range valueNames {
		m[n] = table
	}
	for _, n := range extraNames {
		m[n] = table
	}
	return m
}

// emitPivotTable creates the FH table for a native pivot.
func (p *Planner) emitPivotTable(plan *Plan, a *analysis, groupNames, valueNames []string,
	valType storage.ColumnType) (string, error) {

	fh := p.temp("fh")
	plan.Cleanup = append(plan.Cleanup, Step{Purpose: "drop FH", SQL: "DROP TABLE IF EXISTS " + fh})
	plan.ResultTable = fh
	plan.ResultTables = []string{fh}
	plan.N = len(valueNames)
	var defs []string
	for gi, g := range a.groupCols {
		defs = append(defs, colDef(groupNames[gi], a.schema[a.schema.ColumnIndex(g)].Type))
	}
	for _, v := range valueNames {
		defs = append(defs, colDef(v, valType))
	}
	pkey := ""
	if len(groupNames) > 0 {
		pkey = ", PRIMARY KEY(" + joinIdents(groupNames) + ")"
	}
	plan.Steps = append(plan.Steps, Step{Purpose: "create FH",
		SQL: fmt.Sprintf("CREATE TABLE %s (%s%s)", fh, strings.Join(defs, ", "), pkey)})
	return fh, nil
}

// Pivot batch metrics: hash-pivot scans free to fan out vs. ones pinned to
// one worker by SetBatch(false) or an injected core.batch fault.
var (
	mPivotBatch         = obs.Default.Counter("batch.pivot.folds")
	mPivotBatchFallback = obs.Default.Counter("batch.pivot.fallbacks")
)

// pivotAcc folds one (group, column) cell.
type pivotAcc struct {
	fn       expr.AggFn
	seen     bool
	sum      float64
	sumInt   int64
	isInt    bool
	count    int64
	best     value.Value
	nonNullC int64 // rows whose CASE output is non-null (for pct zero fill)
}

func (acc *pivotAcc) add(v value.Value) {
	if v.IsNull() {
		return
	}
	acc.nonNullC++
	switch acc.fn {
	case expr.AggSum, expr.AggAvg, expr.AggVpct, expr.AggHpct:
		f, _ := v.AsFloat()
		if !acc.seen {
			acc.isInt = v.Kind() == value.KindInt
		} else if v.Kind() != value.KindInt {
			acc.isInt = false
		}
		if i, ok := v.AsInt(); ok && v.Kind() == value.KindInt {
			acc.sumInt += i
		}
		acc.sum += f
		acc.count++
	case expr.AggCount:
		acc.count++
	case expr.AggMin:
		if !acc.seen || value.Compare(v, acc.best) < 0 {
			acc.best = v
		}
	case expr.AggMax:
		if !acc.seen || value.Compare(v, acc.best) > 0 {
			acc.best = v
		}
	}
	acc.seen = true
}

// merge folds a disjoint partition's cell state into the receiver (same
// semantics as the engine accumulators' merge: add(all rows) ≡ merged
// partials). Integer sums stay exact via sumInt; isInt holds only if every
// partition saw only integers.
func (acc *pivotAcc) merge(o *pivotAcc) {
	if !o.seen {
		return
	}
	if !acc.seen {
		*acc = *o
		return
	}
	acc.nonNullC += o.nonNullC
	switch acc.fn {
	case expr.AggSum, expr.AggAvg, expr.AggVpct, expr.AggHpct:
		acc.sum += o.sum
		acc.sumInt += o.sumInt
		acc.isInt = acc.isInt && o.isInt
		acc.count += o.count
	case expr.AggCount:
		acc.count += o.count
	case expr.AggMin:
		if value.Compare(o.best, acc.best) < 0 {
			acc.best = o.best
		}
	case expr.AggMax:
		if value.Compare(o.best, acc.best) > 0 {
			acc.best = o.best
		}
	}
}

func (acc *pivotAcc) result() value.Value {
	if !acc.seen {
		return value.Null
	}
	switch acc.fn {
	case expr.AggSum:
		if acc.isInt {
			return value.NewInt(acc.sumInt)
		}
		return value.NewFloat(acc.sum)
	case expr.AggCount:
		return value.NewInt(acc.count)
	case expr.AggAvg:
		return value.NewFloat(acc.sum / float64(acc.count))
	case expr.AggMin, expr.AggMax:
		return acc.best
	default:
		return value.NewFloat(acc.sum)
	}
}

// pivotStride mirrors the engine's governor stride: governed pivot loops
// check cancellation and budgets once per this many rows, bounding both the
// hot-path overhead and the rows processed after a cancel.
const pivotStride = 1024

// pivotGroup is one output row under construction: its cells, one per BY
// combination, and — in percentage mode — the row total they divide by.
type pivotGroup struct {
	keyVals []value.Value
	cells   []pivotAcc
	total   pivotAcc
}

// pivotPart is one partition's groups in local first-appearance order (the
// engine.Partial the shared partition-and-merge works on).
type pivotPart struct {
	groups map[string]*pivotGroup
	order  []string
}

// Len reports the partition's group count.
func (p *pivotPart) Len() int { return len(p.order) }

// Absorb merges the next-higher partition into p cell by cell.
func (p *pivotPart) Absorb(from *pivotPart) error {
	for _, k := range from.order {
		g := from.groups[k]
		tgt, ok := p.groups[k]
		if !ok {
			p.groups[k] = g
			p.order = append(p.order, k)
			continue
		}
		for i := range tgt.cells {
			tgt.cells[i].merge(&g.cells[i])
		}
		tgt.total.merge(&g.total)
	}
	return nil
}

// runPivot scans F, hashing each row to its group and result column. For
// percentage mode it also folds the per-group total and divides at emit
// time, NULLing zero or all-NULL totals like the SQL plans do. The scan runs
// through engine.FoldPartitions — the engine's own partition-and-merge, so
// worker count, spans, sibling cancellation, panic containment, and error
// selection are the GROUP BY fold's — with cell-dispatch accumulators as the
// per-partition state; the emit span then writes FH.
//
// Workers stride-check their context, and group allocations are charged
// against MaxGroups across all workers.
func runPivot(ctx context.Context, eng *engine.Engine, table, fh string, groupCols []string,
	call *expr.AggCall, combos []combo, where expr.Expr, pct bool, deflt *value.Value,
	parallelism int, span *obs.Span) error {

	lim := eng.Limits()
	if l, ok := engine.LimitsFromContext(ctx); ok {
		lim = l
	}
	src, err := eng.Catalog().Get(table)
	if err != nil {
		return err
	}
	dst, err := eng.Catalog().Get(fh)
	if err != nil {
		return err
	}
	schema := src.Schema()
	resolver := expr.SchemaResolver(schema.Names())

	// Grouping and BY columns are read through typed cell getters; WHERE and
	// the measure evaluate against a lazy row view (one per worker).
	groupGet := make([]func(int) value.Value, len(groupCols))
	for i, g := range groupCols {
		groupGet[i] = src.CellGetter(schema.ColumnIndex(g))
	}
	byGet := make([]func(int) value.Value, len(call.By))
	for i, b := range call.By {
		byGet[i] = src.CellGetter(schema.ColumnIndex(b))
	}
	var measure expr.Expr
	if call.Arg != nil {
		measure, err = expr.Bind(call.Arg, resolver)
		if err != nil {
			return err
		}
	}
	var pred expr.Expr
	if where != nil {
		pred, err = expr.Bind(where, resolver)
		if err != nil {
			return err
		}
	}

	colOf := make(map[string]int, len(combos))
	for i, c := range combos {
		colOf[value.EncodeKeyString(c.vals...)] = i
	}

	// SetBatch(false) and an injected core.batch fault pin the scan to one
	// worker, as they pin the engine's folds to the sequential reference
	// (the silent-fallback contract of the fault point).
	if eng.BatchEnabled() && chaos.Hit(chaos.CoreBatch) == nil {
		mPivotBatch.Inc()
	} else {
		mPivotBatchFallback.Inc()
		parallelism = 1
	}

	fn := call.Fn
	if pct {
		fn = expr.AggSum
	}
	if call.Star {
		fn = expr.AggCount
	}

	// totalGroups counts group allocations across every partition, charged
	// against MaxGroups. Groups shared across partitions are counted once per
	// partition — an over-approximation, same budget semantics as the
	// engine's fold.
	var totalGroups int64

	// scanPart folds the contiguous row range [lo, hi) into a private group
	// map. The bound expressions (pred, measure) are stateless under Eval and
	// shared across workers; concurrent column reads are safe (the engine
	// serializes writes per statement). sctx is the worker's view of the
	// statement context — the fan-out's cancel context when parallel —
	// checked every pivotStride rows.
	scanPart := func(sctx context.Context, lo, hi int) (*pivotPart, error) {
		part := &pivotPart{groups: make(map[string]*pivotGroup)}
		view := src.NewRowView()
		keyBuf := make([]byte, 0, 64)
		byBuf := make([]byte, 0, 64)
		for r := lo; r < hi; r++ {
			if (r-lo)%pivotStride == 0 && r > lo {
				if err := engine.CheckCtx(sctx); err != nil {
					return nil, err
				}
			}
			view.Seek(r)
			if pred != nil {
				v, err := pred.Eval(view)
				if err != nil {
					return nil, err
				}
				if !v.Truthy() {
					continue
				}
			}
			keyBuf = keyBuf[:0]
			for _, get := range groupGet {
				keyBuf = value.AppendKey(keyBuf, get(r))
			}
			g, ok := part.groups[string(keyBuf)]
			if !ok {
				if err := chaos.Hit(chaos.PivotAlloc); err != nil {
					return nil, err
				}
				if n := atomic.AddInt64(&totalGroups, 1); lim.MaxGroups > 0 && n > lim.MaxGroups {
					return nil, &engine.LimitError{
						PCTCode:  diag.CodeGroupLimit,
						Resource: "group",
						Limit:    lim.MaxGroups,
					}
				}
				g = &pivotGroup{cells: make([]pivotAcc, len(combos))}
				for i := range g.cells {
					g.cells[i].fn = fn
				}
				g.total.fn = expr.AggSum
				for _, get := range groupGet {
					g.keyVals = append(g.keyVals, get(r))
				}
				k := string(keyBuf)
				part.groups[k] = g
				part.order = append(part.order, k)
			}
			byBuf = byBuf[:0]
			for _, get := range byGet {
				byBuf = value.AppendKey(byBuf, get(r))
			}
			ci, ok := colOf[string(byBuf)]
			if !ok {
				// A combination outside the feedback snapshot (possible only if
				// F changed between planning and execution).
				return nil, fmt.Errorf("core: row %d has a BY combination absent from the planned column layout", r)
			}
			var mv value.Value
			switch {
			case call.Star:
				mv = value.NewInt(1)
			case measure != nil:
				var err error
				mv, err = measure.Eval(view)
				if err != nil {
					return nil, err
				}
			}
			if fn == expr.AggCount && !call.Star {
				if !mv.IsNull() {
					g.cells[ci].add(value.NewInt(1))
				}
			} else {
				g.cells[ci].add(mv)
			}
			if pct {
				g.total.add(mv)
			}
		}
		return part, nil
	}

	part, _, err := engine.FoldPartitions(ctx, span, "pivot fold", parallelism, src.NumRows(), scanPart)
	if err != nil {
		return err
	}

	es := span.NewChild("emit " + fh)
	out := make([]value.Value, 0, len(groupCols)+len(combos))
	for ki, k := range part.order {
		if ki > 0 && ki%pivotStride == 0 {
			if err := engine.CheckCtx(ctx); err != nil {
				es.Attr("error", err.Error())
				es.End()
				return err
			}
		}
		g := part.groups[k]
		out = out[:0]
		out = append(out, g.keyVals...)
		total := g.total.result()
		for i := range g.cells {
			cell := &g.cells[i]
			var v value.Value
			if pct {
				switch {
				case total.IsNull():
					v = value.Null
				default:
					tf, _ := total.AsFloat()
					if tf == 0 { // floateq:ok SQL division-by-zero guard: exact zero yields NULL
						v = value.Null
					} else {
						// sum(CASE … ELSE 0) semantics: absent combinations
						// contribute an explicit zero.
						cf := 0.0
						if cell.seen {
							r := cell.result()
							cf, _ = r.AsFloat()
						}
						v = value.NewFloat(cf / tf)
					}
				}
			} else {
				v = cell.result()
				if v.IsNull() && deflt != nil {
					v = *deflt
				}
			}
			out = append(out, v)
		}
		if _, err := dst.AppendRow(out); err != nil {
			es.Attr("error", err.Error())
			es.End()
			return err
		}
	}
	es.End()
	es.SetRows(int64(len(part.order)), int64(len(part.order)))
	return nil
}
