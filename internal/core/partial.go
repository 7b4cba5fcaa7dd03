package core

import (
	"strings"

	"repro/internal/expr"
	"repro/internal/storage"
)

// partialAgg is one row of the partial-aggregate table: how a standard
// aggregate is carried at a finer grouping level and re-aggregated one level
// coarser — Gray et al.'s distributive/algebraic split. Every plan that
// derives an aggregate from a summary instead of F reads it here: the summary
// cache's delta merge, the lattice roll-ups, and the from-FV strategies of
// Hpct and Hagg.
type partialAgg struct {
	fine []expr.AggFn // aggregates of the call's own argument, one per fine-level column
	fold string       // the aggregate that folds each fine column one level coarser
}

// sum, count, min and max are distributive: one fine column, folded by sum,
// sum, min and max. avg is algebraic: a sum and a count, folded separately
// and divided. DISTINCT is holistic and has no row.
var partialAggs = map[expr.AggFn]partialAgg{
	expr.AggSum:   {fine: []expr.AggFn{expr.AggSum}, fold: "sum"},
	expr.AggCount: {fine: []expr.AggFn{expr.AggCount}, fold: "sum"},
	expr.AggMin:   {fine: []expr.AggFn{expr.AggMin}, fold: "min"},
	expr.AggMax:   {fine: []expr.AggFn{expr.AggMax}, fold: "max"},
	expr.AggAvg:   {fine: []expr.AggFn{expr.AggSum, expr.AggCount}, fold: "sum"},
}

// partialOf looks a call up in the table; ok is false for DISTINCT.
func partialOf(call *expr.AggCall) (pa partialAgg, ok bool) {
	pa, ok = partialAggs[call.Fn]
	return pa, ok && !call.Distinct
}

// distributive reports whether the aggregate is a single column that
// re-aggregates by itself — what incremental maintenance and lattice roll-up
// need; summaries holding avg or DISTINCT rebuild on DML instead.
func (pa partialAgg) distributive() bool { return len(pa.fine) == 1 }

// reagg renders the re-aggregation of the fine-level columns cols one level
// coarser. wrap, when set, rewrites each column reference first (the Hagg
// CASE guard).
func (pa partialAgg) reagg(cols []string, wrap func(string) string) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		ref := quoteIdent(c)
		if wrap != nil {
			ref = wrap(ref)
		}
		parts[i] = pa.fold + "(" + ref + ")"
	}
	return strings.Join(parts, " / ")
}

// carry appends to a fine-level select list (and, when defs is set, to its
// column definitions) the aliased aggregates that carry call's partial state,
// and returns the aliases.
func (p *Planner) carry(a *analysis, call *expr.AggCall, pa partialAgg, kind string, sels, defs *[]string) []string {
	cols := make([]string, len(pa.fine))
	for i, fn := range pa.fine {
		cols[i] = p.temp(kind)
		fine := expr.AggCall{Fn: fn, Arg: call.Arg, Star: call.Arg == nil}
		*sels = append(*sels, fine.String()+" AS "+cols[i])
		if defs != nil {
			typ := aggResultType(call, a.schema)
			if fn == expr.AggCount {
				typ = storage.TypeInt
			}
			*defs = append(*defs, colDef(cols[i], typ))
		}
	}
	return cols
}
