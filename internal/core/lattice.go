package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/storage"
)

// maxLatticeNodes caps the resolved grouping-set lattice. CUBE doubles the
// node count per dimension, so the cap corresponds to CUBE over eight
// dimensions — beyond that the cross-tab result is almost certainly a
// mistake, and the per-node plan steps would dwarf the base-table scan the
// lattice exists to avoid.
const maxLatticeNodes = 256

// checkLattice rejects the strategies and select lists a lattice plan cannot
// honour.
func checkLattice(a *analysis, opts Options) error {
	kw := a.setsKind.Keyword()
	switch {
	case a.class == ClassHorizontalAgg:
		return fmt.Errorf("core: horizontal aggregations are not supported with GROUP BY %s", kw)
	case a.class == ClassVertical && opts.Vpct.UseUpdate:
		return fmt.Errorf("core: the UPDATE strategy mutates its summary in place and cannot be combined with GROUP BY %s", kw)
	case a.class == ClassVertical && opts.Vpct.MissingRows != MissingNone:
		return fmt.Errorf("core: missing-row handling is not supported with GROUP BY %s", kw)
	case a.class == ClassHorizontalPct && opts.Hpct.FromFV:
		return a.fromFVError()
	case len(a.sets) == 0:
		return fmt.Errorf("core: internal: GROUP BY %s resolved to no grouping sets", kw)
	case len(a.sets) > maxLatticeNodes:
		return fmt.Errorf("core: GROUP BY %s expands to more than %d grouping sets", kw, maxLatticeNodes)
	}
	for _, it := range a.items {
		if it.kind != itemVertAgg {
			continue
		}
		if pa, ok := partialOf(it.agg); !ok || !pa.distributive() {
			return fmt.Errorf("core: %s is not distributive and cannot be derived from the finest lattice summary; only sum, count, min and max can accompany GROUP BY %s", it.agg, kw)
		}
	}
	return nil
}

// planLattice generates the evaluation plan for GROUP BY ROLLUP / CUBE /
// GROUPING SETS. The paper's percentage aggregations compose with Gray
// et al.'s data cube by planning the lattice bottom-up: one scan of F
// builds the finest summary FS (grouped by the union of every set's
// dimensions, plus any Hpct BY columns: node derivation needs the BY values
// to pivot on), and every coarser node re-aggregates FS — legal because
// every value column is distributive (measure sums always; accompanying
// plain aggregates are restricted to sum, count, min and max). A vertical
// lattice node is the totals-and-divide node over FS or its roll-up, so
// percentage-of-parent semantics fall out of the super-group machinery with
// the node's grouping standing in for GROUP BY; a horizontal node pivots FS
// under the layout the feedback pass defined once for the whole lattice.
//
// FS is laid out and keyed like a Vpct plan's Fk (fineSummary), so a cached
// finest summary answers the whole lattice under DML through the usual
// epoch/delta maintenance.
//
// Rows land in a cross-tab table FC node by node, finest first, with NULL
// filling the dimensions a node rolled away and GROUPING(d1, …) markers
// materialized as integer literals per node.
func (p *Planner) planLattice(ctx context.Context, plan *Plan, a *analysis, opts Options) error {
	if err := checkLattice(a, opts); err != nil {
		return err
	}
	hl, err := p.horizontalLayout(ctx, plan, a)
	if err != nil {
		return err
	}

	// FS: the finest summary, the lattice's only base-table scan. Virtual
	// relations are never cached: no DML hook validates or maintains a summary
	// over them.
	fsGroup := a.fineGroup()
	fs, col := fineSummary(a, "FS", fsGroup, false)
	fs.table = p.temp("fs")
	key := ""
	if p.shareSummaries && len(fsGroup) > 0 && !p.Eng.IsVirtualTable(a.table) {
		key = fs.key(a)
	}
	reused := p.materialize(ctx, plan, a, fs, key, "create FS",
		"compute finest summary FS from F (the lattice's only base-table scan)", fs.fromF(a)).hit()
	p.mu.Lock()
	p.cstats.LatticePlans++
	p.cstats.LatticeNodes += int64(len(a.sets))
	if reused {
		p.cstats.LatticeFinestReused++
	}
	p.mu.Unlock()
	mCacheLatticePlans.Inc()
	mCacheLatticeNodes.Add(int64(len(a.sets)))
	if reused {
		mCacheLatticeReused.Inc()
	}

	// Output columns: one name per select item, except Hpct items, which
	// expand to one column per BY combination under the horizontal layout's
	// names. itemPos[idx] is the 1-based FC position of item idx's first
	// column.
	var flat []string
	var types []storage.ColumnType
	itemPos := make([]int, len(a.items))
	ht := 0
	for idx, it := range a.items {
		itemPos[idx] = len(flat) + 1
		names := []string{it.outName()}
		if it.kind == itemPct && it.agg.Fn == expr.AggHpct {
			names = hl.terms[ht].names
			plan.N += len(names)
			ht++
		}
		for range names {
			types = append(types, a.itemType(it))
		}
		flat = append(flat, names...)
	}
	flat = uniqueNames(flat)
	if p.MaxColumns > 0 && len(flat) > p.MaxColumns {
		return fmt.Errorf("core: result needs %d columns but MaxColumns is %d; grouping-set results cannot be partitioned",
			len(flat), p.MaxColumns)
	}
	fcCols := make([]string, len(flat))
	for i, n := range flat {
		fcCols[i] = colDef(n, types[i])
	}

	// FC: the cross-tab result, one block of rows per lattice node, finest
	// first.
	fc := plan.owns(p.temp("fc"))
	plan.Steps = append(plan.Steps, Step{Purpose: "create cross-tab result FC",
		SQL: fmt.Sprintf("CREATE TABLE %s (%s)", fc, strings.Join(fcCols, ", "))})
	for ni, set := range a.sets {
		label := "(" + strings.Join(set, ", ") + ")"
		var rows string
		if len(hl.terms) > 0 {
			rows = p.horizontalNode(plan, a, hl, fs, col, set, label)
		} else {
			rows = p.verticalNode(ctx, plan, a, fs, col, set, label)
		}
		plan.Steps = append(plan.Steps, Step{
			Purpose: fmt.Sprintf("lattice node %d %s: append cross-tab rows to FC", ni+1, label),
			SQL:     "INSERT INTO " + fc + " " + rows + nodeOrder(a, itemPos, set)})
	}

	// No default ordering: the node-major block order is the result's shape
	// (finest first, grand total last), and a group-column sort would
	// interleave the blocks. The user's ORDER BY still applies.
	plan.ResultTable, plan.ResultTables = fc, []string{fc}
	plan.FinalSelect = selectSQL(quoteIdents(flat), fc, orderBySQL(a, nil), limitClause(a))
	return nil
}

// verticalNode derives one vertical or standard lattice node and returns the
// query of its rows: the totals-and-divide node over FS itself for the finest
// set, over a roll-up of FS for a coarser one — the paper's Section 3.1 with
// the node's set standing in for GROUP BY.
func (p *Planner) verticalNode(ctx context.Context, plan *Plan, a *analysis, fs *summary, col map[int]string, set []string, label string) string {
	node := fs
	if !sameColumnSet(set, fs.group) {
		node = &summary{what: "node summary", table: p.temp("nfk"), group: set, vals: fs.vals}
		plan.build(a, node, "create summary for lattice node "+label, "lattice node "+label+": roll up from FS",
			func() string { return selectSQL(fs.rollup(set), fs.table, groupByClause(set)) })
	}
	d := newDivide(a, node, set, col)
	p.emitTotals(ctx, plan, a, d, totalsOpts{node: label})
	return "SELECT " + strings.Join(d.project(a, set), ", ") + d.join()
}

// horizontalNode derives one horizontal lattice node and returns the query of
// its rows: one grouped select over FS computes every pivot cell from the
// measure sums and rolls the extras up, then a plain projection lands the
// block in FC (literals — NULL dims and GROUPING markers — stay out of the
// grouped select).
func (p *Planner) horizontalNode(plan *Plan, a *analysis, hl *hlayout, fs *summary, col map[int]string, set []string, label string) string {
	nh := &summary{what: "node summary", table: p.temp("nh"), group: set}
	cells := map[int][]string{} // Hpct item → its cell columns
	for _, t := range hl.terms {
		for _, c := range t.combos {
			h := "h" + strconv.Itoa(len(nh.vals)+1)
			cells[t.itemIdx] = append(cells[t.itemIdx], h)
			nh.vals = append(nh.vals, vcol{name: h, typ: storage.TypeFloat,
				sel: hpctCell(quoteIdent(col[t.itemIdx]), comboCond("", t.call.By, c.vals))})
		}
	}
	for _, idx := range hl.extras {
		v := fs.val(col[idx])
		nh.vals = append(nh.vals, vcol{name: v.name, typ: v.typ, sel: v.fold})
	}
	plan.build(a, nh, "create summary for lattice node "+label, "lattice node "+label+": pivot from FS",
		func() string { return selectSQL(nh.selects(), fs.table, groupByClause(set)) })
	return selectSQL(projectItems(a, set, col, quoteIdent, func(idx int) []string { return cells[idx] }), nh.table)
}

// nodeOrder renders a node's ORDER BY over its own dimensions (by FC
// position), which keeps each block internally sorted. It is only emitted
// when every dimension of the set is selected — a total order over the node's
// key — so the block order cannot depend on sort stability.
func nodeOrder(a *analysis, itemPos []int, set []string) string {
	var parts []string
	for _, d := range set {
		found := false
		for idx, it := range a.items {
			if it.kind == itemGroupCol && strings.EqualFold(it.col, d) {
				parts = append(parts, strconv.Itoa(itemPos[idx]))
				found = true
				break
			}
		}
		if !found {
			return ""
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return " ORDER BY " + strings.Join(parts, ", ")
}

// groupingMarker computes the GROUPING(d1, …, dn) bit vector for a lattice
// node: bit n-1-i is set when di is rolled away (absent from the node's
// grouping set), matching the SQL standard's GROUPING semantics.
func groupingMarker(gcols, set []string) int {
	marker := 0
	for i, g := range gcols {
		if !containsFold(set, g) {
			marker |= 1 << (len(gcols) - 1 - i)
		}
	}
	return marker
}
