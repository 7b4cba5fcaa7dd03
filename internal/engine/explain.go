package engine

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/sqlparse"
	"repro/internal/value"
)

// execExplain renders the physical plan of a SELECT. The FROM plan is
// actually constructed — index decisions are made exactly as execution would
// make them — but join hash tables are built only when the plan runs, so
// plain EXPLAIN never pays the build cost even on large inputs. EXPLAIN
// ANALYZE executes the query and annotates each operator with its actual row
// count and cumulative time. A SELECT the rewriter evaluates is explained by
// the rewriter, under ctx like its evaluation.
func (e *Engine) execExplain(ctx context.Context, ex *sqlparse.Explain, ec execCtx) (*Result, error) {
	if rw := e.rw.Load(); rw != nil && rewriteError(ex.Query) != nil {
		return (*rw).Explain(nestedIn(ctx, ec.rec != nil), ex, ec.par, ec.fullSpan())
	}
	if ex.Analyze {
		return e.execExplainAnalyze(ex, ec)
	}
	sel := ex.Query
	in, residualWhere, err := e.buildFrom(sel)
	if err != nil {
		return nil, err
	}
	items, err := expandStars(sel.Items, in.schema())
	if err != nil {
		return nil, err
	}

	var lines []string
	emit := func(depth int, s string) {
		lines = append(lines, strings.Repeat("  ", depth)+s)
	}
	depth := explainHeader(sel, items, in.schema(), emit, nil)
	if residualWhere != nil {
		emit(depth, "Filter "+residualWhere.String())
		depth++
	}
	describeIter(in, depth, emit)
	return PlanResult(lines), nil
}

// execExplainAnalyze runs the SELECT with full instrumentation and renders
// the same plan tree annotated with actual rows and times, plus the parallel
// fold's per-worker breakdown and a trailing execution summary.
func (e *Engine) execExplainAnalyze(ex *sqlparse.Explain, ec execCtx) (*Result, error) {
	sel := ex.Query
	// The select runs under the statement's own context — governor, record,
	// reference — with its plan exposed; an untraced statement gets a
	// private span to read the stage actuals from.
	insp := &selInspect{}
	ec.inspect = insp
	if ec.span == nil {
		ec.span = obs.NewSpan("statement")
	}
	_, err := e.execSelect(sel, ec)
	total := time.Since(ec.start)
	if err != nil {
		return nil, err
	}

	items, err := expandStars(sel.Items, insp.in.schema())
	if err != nil {
		return nil, err
	}
	var lines []string
	emit := func(depth int, s string) {
		lines = append(lines, strings.Repeat("  ", depth)+s)
	}
	depth := explainHeader(sel, items, insp.in.schema(), emit, ec.span)
	// The residual WHERE filter is the pipeline root itself when present, so
	// describeIter renders it (with actuals) — no separate header line here,
	// unlike plain EXPLAIN which works from the unwrapped pipeline.
	describeIter(insp.in, depth, emit)
	emit(0, fmt.Sprintf("Execution: rows=%d time=%s", insp.rows, total))
	return PlanResult(lines), nil
}

// PlanResult is the relation EXPLAIN returns: one "plan" column, a line a
// row.
func PlanResult(lines []string) *Result {
	res := &Result{Columns: []string{"plan"}}
	for _, l := range lines {
		res.Rows = append(res.Rows, []value.Value{value.NewString(l)})
	}
	return res
}

// spanActual renders the "(actual …)" annotation for a stage span, or "".
func spanActual(sp *obs.Span) string {
	if sp == nil {
		return ""
	}
	if sp.RowsOut >= 0 {
		return fmt.Sprintf(" (actual rows=%d time=%s)", sp.RowsOut, sp.Duration)
	}
	return fmt.Sprintf(" (actual time=%s)", sp.Duration)
}

// explainHeader emits the plan lines above the FROM pipeline — Limit, Sort,
// Distinct, and the consumer stage (window / hash aggregate / project) — and
// returns the depth the pipeline starts at. When root is non-nil (EXPLAIN
// ANALYZE) each line is annotated from the corresponding stage span, and the
// parallel fold's worker and merge spans render under the HashAggregate. sch
// is the FROM pipeline's schema: the HashAggregate line names the columns the
// fold dispatches CASE arms on (dispatch.go), when it does.
func explainHeader(sel *sqlparse.Select, items []sqlparse.SelectItem, sch relSchema,
	emit func(int, string), root *obs.Span) int {

	depth := 0
	if sel.Limit != nil {
		emit(depth, fmt.Sprintf("Limit %d", *sel.Limit))
		depth++
	}
	if len(sel.OrderBy) > 0 {
		keys := make([]string, len(sel.OrderBy))
		for i, k := range sel.OrderBy {
			keys[i] = k.String()
		}
		emit(depth, "Sort ["+strings.Join(keys, ", ")+"]"+spanActual(root.Find("sort")))
		depth++
	}
	if sel.Distinct {
		emit(depth, "Distinct"+spanActual(root.Find("distinct")))
		depth++
	}

	switch {
	case hasWindow(items):
		var specs []string
		for _, it := range items {
			_ = expr.Walk(it.Expr, func(n expr.Expr) error {
				if a, ok := n.(*expr.AggCall); ok && a.Over != nil {
					specs = append(specs, a.String())
				}
				return nil
			})
		}
		emit(depth, "WindowAggregate ["+strings.Join(specs, "; ")+"]"+spanActual(root.Find("window")))
		depth++
	case len(sel.GroupBy) > 0 || sel.Having != nil || anyAggregate(items):
		var keys []string
		for _, g := range sel.GroupBy {
			keys = append(keys, g.String())
		}
		var aggs []string
		for _, it := range items {
			_ = expr.Walk(it.Expr, func(n expr.Expr) error {
				if a, ok := n.(*expr.AggCall); ok {
					aggs = append(aggs, a.String())
				}
				return nil
			})
		}
		line := "HashAggregate keys=[" + strings.Join(keys, ", ") + "] aggs=[" + strings.Join(aggs, ", ") + "]"
		if sel.Having != nil {
			line += " having=" + sel.Having.String()
		}
		if specs, _, err := collectAggSpecs(items, sel.Having, sch); err == nil {
			if d := dispatchColumns(specs, sch); d != "" {
				line += " dispatch=[" + d + "]"
			}
		}
		agg := root.Find("aggregate")
		emit(depth, line+spanActual(agg))
		depth++
		if fan := agg.Find("partition fan-out"); fan != nil {
			emit(depth, fmt.Sprintf("Parallel fold (%d workers)", len(fan.Children)))
			for _, w := range fan.Children {
				emit(depth+1, fmt.Sprintf("%s: rows=%d groups=%d time=%s", w.Name, w.RowsIn, w.RowsOut, w.Duration))
			}
			if m := agg.Find("merge"); m != nil {
				emit(depth+1, fmt.Sprintf("merge: groups=%d time=%s", m.RowsOut, m.Duration))
			}
		}
	default:
		names := outputNames(items)
		emit(depth, "Project ["+strings.Join(names, ", ")+"]"+spanActual(root.Find("project")))
		depth++
	}
	return depth
}

// describeIter renders the FROM plan at the bottom of the plan tree.
// Operators carrying opStats (EXPLAIN ANALYZE) are annotated with actual rows
// and cumulative times.
func describeIter(it planNode, depth int, emit func(int, string)) {
	switch n := it.(type) {
	case *tableScan:
		emit(depth, fmt.Sprintf("Scan %s (%d rows)%s", n.tab.Name(), n.tab.NumRows(), n.stats.actualSuffix()))
	case *filterIter:
		emit(depth, "Filter "+n.pred.String()+n.stats.actualSuffix())
		describeIter(n.child, depth+1, emit)
	case *hashJoin:
		leftW := len(n.sch) - n.rightW
		var conds []string
		for _, p := range n.build.pairs {
			c := n.sch[p.leftIdx].Qualifier + "." + n.sch[p.leftIdx].Name + " = " +
				n.sch[leftW+p.rightIdx].Qualifier + "." + n.sch[leftW+p.rightIdx].Name
			if p.nullSafe {
				c += " (null-safe)"
			}
			conds = append(conds, c)
		}
		kind := "HashJoin"
		if n.outer {
			kind = "HashLeftOuterJoin"
		}
		build := "hash table"
		if n.build.useIndex {
			build = "existing index"
		}
		buildName := " " + n.build.tab.Name()
		extra := ""
		if n.stats != nil && n.build.built && !n.build.useIndex {
			extra = fmt.Sprintf(" build time=%s", time.Duration(n.build.buildNs))
		}
		emit(depth, fmt.Sprintf("%s on [%s] (build%s via %s)%s%s",
			kind, strings.Join(conds, " AND "), buildName, build, extra, n.stats.actualSuffix()))
		describeIter(n.left, depth+1, emit)
	case *nestedLoopJoin:
		kind := "NestedLoopJoin"
		if n.outer {
			kind = "NestedLoopLeftOuterJoin"
		}
		pred := "true (cross product)"
		if n.pred != nil {
			pred = n.pred.String()
		}
		emit(depth, fmt.Sprintf("%s on %s%s", kind, pred, n.stats.actualSuffix()))
		describeIter(n.left, depth+1, emit)
		mat := "Materialize (right side, deferred to first probe)"
		if n.opened {
			mat = fmt.Sprintf("Materialize (right side, %d rows, time=%s)", n.right.count(), time.Duration(n.openNs))
		}
		emit(depth+1, mat)
		describeIter(n.right, depth+2, emit)
	case *valuesNode:
		emit(depth, "Values (1 rows)"+n.stats.actualSuffix())
	default:
		emit(depth, fmt.Sprintf("%T", it))
	}
}
