package core

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/expr"
	"repro/internal/storage"
)

// vcol is one aggregate column of a summary.
type vcol struct {
	name string
	typ  storage.ColumnType
	sel  string // the aggregate over F that fills it
	fold string // its re-aggregation over a finer summary; "" when not distributive
	// call is sel as a node, for a summary the cache keeps: what tells it
	// which columns of F the summary reads and whether an UPDATE retracts.
	call *expr.AggCall
}

// sumOf is the aggregate that carries a percentage measure.
func sumOf(arg expr.Expr) *expr.AggCall { return &expr.AggCall{Fn: expr.AggSum, Arg: arg} }

// summary is one aggregate table of a plan — Fk, an Fj, the lattice's FS or
// a lattice node's roll-up: the group columns, then the aggregate columns.
// It is the only place that knows a summary's column layout, its cache key
// and its delta metadata, and materialize is the only place that builds or
// reuses one (build, when the plan keeps it private).
type summary struct {
	what  string // "Fk", "Fj", "FS", "node summary": names the cache markers
	table string // a fresh temp name, or the cached table the lookup answered
	group []string
	vals  []vcol
	// via holds the group columns of the summary this one is computed from,
	// when it is: a REAL sum's rounding depends on that grouping too.
	via []string
	// indexed asks the lookup that builds or refreshes a cached summary to
	// index it on its group columns: a totals table Fj, the build side of the
	// division's join on the common subkey.
	indexed bool
	// from is the cached summary this one's build reads, nil when it reads
	// F; epoch is the base epoch the cached table reflects, -1 when unknown.
	from  *summary
	epoch int64

	// Rendered once by defs and selects: the cache key, the delta metadata
	// and the build statements all read them, on the plan path of every hit.
	defList, selList []string
}

// fineSummary lays out the fine summary of a percentage query — Fk, or a
// lattice's FS — over the given grouping: one column m1… per distinct
// percentage measure (one per term under the UPDATE variant, where each term
// overwrites its column with its own percentages), one column x1… per plain
// aggregate, and a row count when there would be no value column at all (a
// lattice of bare dimensions and GROUPING markers), so every node summary
// stays a well-formed relation. The second result maps each aggregate select
// item to the column that carries it.
func fineSummary(a *analysis, what string, group []string, update bool) (*summary, map[int]string) {
	s := &summary{what: what, group: group}
	col := map[int]string{}
	byMeasure := map[string]string{}
	var extras []vcol
	for idx, it := range a.items {
		switch it.kind {
		case itemPct:
			mSQL := it.agg.Arg.String()
			c, ok := byMeasure[mSQL]
			if !ok || update {
				c = fmt.Sprintf("m%d", len(s.vals)+1)
				byMeasure[mSQL] = c
				typ := exprType(it.agg.Arg, a.schema)
				if update {
					typ = storage.TypeFloat
				}
				s.vals = append(s.vals, vcol{name: c, typ: typ, sel: "sum(" + mSQL + ")", fold: "sum(" + c + ")", call: sumOf(it.agg.Arg)})
			}
			col[idx] = c
		case itemVertAgg:
			v := vcol{name: fmt.Sprintf("x%d", len(extras)+1), typ: aggResultType(it.agg, a.schema), sel: it.agg.String(), call: it.agg}
			if pa, ok := partialOf(it.agg); ok && pa.distributive() {
				v.fold = pa.reagg([]string{v.name}, nil)
			}
			col[idx] = v.name
			extras = append(extras, v)
		}
	}
	s.vals = append(s.vals, extras...)
	if len(s.vals) == 0 {
		s.vals = []vcol{{name: "cnt", typ: storage.TypeInt, sel: "count(*)", fold: "sum(cnt)", call: &expr.AggCall{Fn: expr.AggCount, Star: true}}}
	}
	return s, col
}

// defs renders the summary's column definitions.
func (s *summary) defs(a *analysis) []string {
	if s.defList == nil {
		s.defList = a.colDefs(s.group, s.group)
		for _, v := range s.vals {
			s.defList = append(s.defList, colDef(v.name, v.typ))
		}
	}
	return s.defList
}

// selects renders the select list that computes the summary from F.
func (s *summary) selects() []string {
	if s.selList == nil {
		s.selList = quoteIdents(s.group)
		for _, v := range s.vals {
			s.selList = append(s.selList, v.sel)
		}
	}
	return s.selList
}

// rollup renders the select list that re-aggregates the summary's value
// columns by a coarser grouping.
func (s *summary) rollup(group []string) []string {
	out := quoteIdents(group)
	for _, v := range s.vals {
		out = append(out, v.fold)
	}
	return out
}

// val returns the aggregate column of the given name.
func (s *summary) val(name string) vcol {
	for _, v := range s.vals {
		if v.name == name {
			return v
		}
	}
	return vcol{}
}

// fromF is the query that computes the summary from the base table.
func (s *summary) fromF(a *analysis) func() string {
	return func() string { return selectSQL(s.selects(), a.table, a.whereSQL(), groupByClause(s.group)) }
}

// key is the structural cache key of a fine summary. The column layout is
// part of it: two queries can share the select list yet assign different
// column names (a measure reused as m1 in one and stored as x1 in the other),
// and a layout mismatch would make the cached table's columns unresolvable
// for the second plan. Vpct and lattice plans build their Fk and FS through
// the same layout, so they share one cached summary.
func (s *summary) key(a *analysis) string {
	return fmt.Sprintf("fk|%s|%s|%s|%s|%s", a.table, a.whereSQL(),
		joinIdents(s.group), strings.Join(s.selects(), ","), strings.Join(s.defs(a), ","))
}

// meta is what the cache keeps of a summary to maintain it without
// replanning: the statement shape of its build, re-run over just the rows DML
// appended or changed; its roll-up over itself, which merges them in — every
// aggregate column must be distributive, one avg or DISTINCT column and
// rollup is "", so DML the summary reads rebuilds instead; the negation of
// the build over a row's old image, when every column is exactly invertible
// (retraction); and the columns of F an UPDATE must leave alone, or leave
// equal, for the summary to survive it.
func (s *summary) meta(a *analysis) *deltaMeta {
	m := &deltaMeta{
		base:    a.table,
		where:   a.whereSQL(),
		groupBy: groupByClause(s.group),
		selects: strings.Join(s.selects(), ", "),
		colDefs: strings.Join(s.defs(a), ", "),
	}
	at := func(dst []int, cols []string) []int {
		for _, c := range cols {
			dst = append(dst, a.schema.ColumnIndex(c))
		}
		return dst
	}
	m.fixed = at(at(nil, s.group), expr.Columns(a.where))
	m.reads = slices.Clone(m.fixed)
	merge, exact, retract := true, true, quoteIdents(s.group)
	for _, v := range s.vals {
		m.reads = at(m.reads, expr.Columns(v.call))
		// A REAL sum is distributive only up to rounding: cached + delta adds
		// in another order than a scan of F does, and a row that moves
		// between the groups of the summary it is rolled up from moves bits.
		realSum := v.call.Fn == expr.AggSum && exprType(v.call.Arg, a.schema) == storage.TypeFloat
		if realSum {
			m.reads = at(m.reads, s.via)
		}
		r := retraction(v.call, a.schema)
		merge, exact, retract = merge && v.fold != "" && !realSum, exact && r != "", append(retract, r)
	}
	if merge {
		m.rollup = strings.Join(s.rollup(s.group), ", ")
	}
	if merge && exact {
		m.retract = strings.Join(retract, ", ")
	}
	return m
}

// retraction renders the negation of call, for aggregating a changed row's
// old image beside its new one, when −old / +new is exact: a count of
// anything, or the sum of a bare INTEGER column (a REAL sum rounds by
// addition order; a computed argument can turn NULL where its columns do not,
// and a sum cannot tell its last value leaving from a zero). "" otherwise.
func retraction(call *expr.AggCall, schema storage.Schema) string {
	col, bare := call.Arg.(*expr.ColumnRef)
	switch {
	case call.Distinct:
	case call.Fn == expr.AggCount, call.Fn == expr.AggSum && bare && exprType(col, schema) == storage.TypeInt:
		return "-" + call.String()
	}
	return ""
}

// materialize leaves s.table holding the summary and reports how the cache
// answered. With a key the summary cache is asked first: when it answers,
// its lookup has already reused, refreshed or built s.table, and the plan
// keeps one comment-only marker for it. Otherwise — no key, the cache off, or
// a summary missing from the cache while planning for display — the table is
// private to the plan: CREATE and INSERT compute it by query (rendered only
// then: a hit is the hot plan path), and the plan's cleanup drops it.
func (p *Planner) materialize(ctx context.Context, plan *Plan, a *analysis, s *summary, key, create, compute string, query func() string) cacheMode {
	if key != "" {
		if mode := p.cacheLookup(ctx, plan, key, s, a, query); mode != cacheOff {
			plan.Steps = append(plan.Steps, mode.marker(s))
			return mode
		}
	}
	plan.build(a, s, create, compute, query)
	return cacheOff
}

// build appends the CREATE and INSERT that compute s by query into a table
// private to the plan, which its cleanup drops.
func (plan *Plan) build(a *analysis, s *summary, create, compute string, query func() string) {
	plan.owns(s.table)
	plan.Steps = append(plan.Steps,
		Step{Purpose: create, SQL: fmt.Sprintf("CREATE TABLE %s (%s)", s.table, strings.Join(s.defs(a), ", "))},
		Step{Purpose: compute, SQL: "INSERT INTO " + s.table + " " + query()})
}
