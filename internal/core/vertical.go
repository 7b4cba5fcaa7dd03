package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/storage"
)

// vterm is one Vpct term of a totals-and-divide node.
type vterm struct {
	call       *expr.AggCall
	measureCol string   // fine-summary column holding sum(A) for this term
	totals     []string // D1..Dj: the node's grouping minus BY; empty = all rows
	fj         string   // the term's totals table
	fjCol      string   // its measure column: A, unless a totals column is named so
}

// divide is the totals-and-divide node: the paper's second and third
// statements over one fine summary — Fk in a plain Vpct plan, FS or its
// roll-up at a lattice node. It emits one totals table Fj per Vpct term and
// renders the division of the fine level by the totals, joined on the common
// subkey. The zero-total rule lives in pct and nowhere else.
type divide struct {
	fine  *summary
	terms []*vterm       // in select-list order
	col   map[int]string // aggregate select item → fine-summary column
}

// newDivide collects the Vpct terms of the select list over a fine summary
// grouped by set.
func newDivide(a *analysis, fine *summary, set []string, col map[int]string) *divide {
	d := &divide{fine: fine, col: col}
	for idx, it := range a.items {
		if it.kind == itemPct && it.agg.Fn == expr.AggVpct {
			d.terms = append(d.terms, &vterm{call: it.agg, measureCol: col[idx], totals: totalsOf(set, it.agg)})
		}
	}
	return d
}

// totalsOpts is what differs between the callers of emitTotals.
type totalsOpts struct {
	node    string    // lattice node label; "" in a plain Vpct plan
	fromF   bool      // aggregate F instead of the fine summary (VpctOptions.FjFromF)
	indexes bool      // index the fine summary and each Fj on the common subkey
	key     string    // the fine summary's cache key; "" keeps every Fj private to the plan
	mode    cacheMode // how the cache answered for the fine summary
}

// emitTotals emits the Fj table of every term. A plain Vpct plan picks the
// smallest available source for each: with several terms the Fj aggregates
// form a lattice, and a term whose totals grouping is a subset of an earlier
// term's (same measure) aggregates that term's Fj instead of the larger fine
// summary — the bottom-up partial aggregation the paper's future work likens
// to association mining — else the fine summary, else F (per strategy). A
// lattice node always aggregates its own summary.
func (p *Planner) emitTotals(ctx context.Context, plan *Plan, a *analysis, d *divide, o totalsOpts) {
	for ti, t := range d.terms {
		mSQL := t.call.Arg.String()
		t.fjCol = measureName(t.totals)
		// A build from the fine summary or a finer Fj reflects F as the fine
		// summary does (from): the finer Fj was answered after it, so it
		// reflects no older state. A cached Fj is indexed on the common subkey.
		fj := &summary{what: "Fj", table: p.temp("fj"), group: t.totals, via: d.fine.group, from: d.fine, indexed: o.indexes && len(t.totals) > 0, vals: []vcol{
			{name: t.fjCol, typ: storage.TypeFloat, sel: "sum(" + mSQL + ")", fold: "sum(" + quoteIdent(t.fjCol) + ")", call: sumOf(t.call.Arg)}}}
		source, measure, where := d.fine.table, "sum("+quoteIdent(t.measureCol)+")", ""
		create := fmt.Sprintf("create Fj for term %d", ti+1)
		compute := fmt.Sprintf("compute coarse totals Fj from partial aggregate Fk (term %d)", ti+1)
		if o.node != "" {
			create = fmt.Sprintf("create Fj for lattice node %s (term %d)", o.node, ti+1)
			compute = fmt.Sprintf("lattice node %s: totals Fj from the node summary (term %d)", o.node, ti+1)
		} else if o.fromF {
			source, measure, where, fj.from = a.table, fj.vals[0].sel, a.whereSQL(), nil
			compute = fmt.Sprintf("compute coarse totals Fj from F (term %d)", ti+1)
		} else if best := finerFj(d.terms[:ti], t); best >= 0 {
			source, measure = d.terms[best].fj, "sum("+quoteIdent(d.terms[best].fjCol)+")"
			compute = fmt.Sprintf("compute coarse totals Fj from the finer Fj of term %d (lattice reuse)", best+1)
		}
		// A cached Fj's delta always re-aggregates the base rows directly (sum
		// is distributive over any partition of F), whatever source the build
		// itself reads from.
		key := ""
		if o.key != "" {
			key = fmt.Sprintf("fj|%s|%s|%s|%s|%v", o.key, joinIdents(t.totals), mSQL, measure, o.fromF)
		}
		mode := p.materialize(ctx, plan, a, fj, key, create, compute, func() string {
			return selectSQL(append(quoteIdents(t.totals), measure), source, where, groupByClause(t.totals))
		})
		t.fj = fj.table
		if mode == cacheBuilt && o.mode.hit() && source == d.fine.table {
			// The paper's Fj-from-Fk derivation applied across statements: a
			// fresh Fj rolled up from a cached Fk.
			p.mu.Lock()
			p.cstats.FjRollups++
			p.mu.Unlock()
			mCacheFjRollups.Inc()
		}
		if o.indexes && len(t.totals) > 0 {
			// The division's join builds on Fj: a cached Fj was indexed by the
			// lookup that built or refreshed it, before any plan could read it,
			// and a cached Fk, the probe side, is not indexed.
			if o.mode == cacheOff {
				plan.Steps = append(plan.Steps, Step{Purpose: "index Fk on the common subkey",
					SQL: fmt.Sprintf("CREATE INDEX %s ON %s (%s)", p.temp("ixk"), d.fine.table, joinIdents(t.totals))})
			}
			if mode == cacheOff {
				plan.Steps = append(plan.Steps, Step{Purpose: "index Fj on the common subkey",
					SQL: fmt.Sprintf("CREATE INDEX %s ON %s (%s)", p.temp("ixj"), t.fj, joinIdents(t.totals))})
			}
		}
	}
}

// finerFj picks, among the finished terms, the smallest Fj over the same
// measure whose grouping covers t's; -1 when there is none.
func finerFj(done []*vterm, t *vterm) int {
	best := -1
	for di, d := range done {
		if d.call.Arg.String() != t.call.Arg.String() || !containsAllFold(d.totals, t.totals) {
			continue
		}
		if best < 0 || len(d.totals) < len(done[best].totals) {
			best = di
		}
	}
	return best
}

// pct renders one term's division, the paper's FV.A = Fk.A / Fj.A: NULL when
// the total is zero or NULL.
func (d *divide) pct(t *vterm) string {
	total := t.fj + "." + quoteIdent(t.fjCol)
	return fmt.Sprintf("CASE WHEN %s <> 0 THEN %s.%s / %s ELSE NULL END",
		total, d.fine.table, quoteIdent(t.measureCol), total)
}

// subkey renders the join of the fine summary with one term's Fj.
func (d *divide) subkey(t *vterm) string {
	return equalityChainNullSafe(d.fine.table, t.fj, t.totals)
}

// join renders the FROM and WHERE of the division: the fine summary and
// every Fj, joined on each term's common subkey.
func (d *divide) join() string {
	from := d.fine.table
	var conds []string
	for _, t := range d.terms {
		from += ", " + t.fj
		if len(t.totals) > 0 {
			conds = append(conds, d.subkey(t))
		}
	}
	return " FROM " + from + whereAll(conds)
}

// project renders the division's select list for the rows of one grouping
// set (see projectItems). Columns are qualified whenever an Fj is joined in.
func (d *divide) project(a *analysis, set []string) []string {
	ref := quoteIdent
	if len(d.terms) > 0 {
		ref = func(c string) string { return d.fine.table + "." + quoteIdent(c) }
	}
	ti := -1
	return projectItems(a, set, d.col, ref, func(int) []string {
		ti++
		return []string{d.pct(d.terms[ti])}
	})
}

// projectItems renders the select list that lands the rows of one grouping
// set in a result table laid out in select-list order: a dimension the set
// rolled away is NULL, a percentage item expands to whatever pct renders for
// it, a plain aggregate reads its summary column, and GROUPING() is the set's
// marker literal. A plain Vpct plan is the case set = GROUP BY.
func projectItems(a *analysis, set []string, col map[int]string, ref func(string) string, pct func(idx int) []string) []string {
	var out []string
	for idx, it := range a.items {
		switch it.kind {
		case itemGroupCol:
			if containsFold(set, it.col) {
				out = append(out, ref(it.col))
			} else {
				out = append(out, "NULL")
			}
		case itemPct:
			out = append(out, pct(idx)...)
		case itemVertAgg:
			out = append(out, ref(col[idx]))
		case itemGrouping:
			out = append(out, strconv.Itoa(groupingMarker(it.gcols, set)))
		}
	}
	return out
}

// planVertical generates the Vpct evaluation plan of Section 3.1:
//
//	Fk:  INSERT INTO Fk SELECT D1..Dk, sum(A)… FROM F GROUP BY D1..Dk
//	Fj:  INSERT INTO Fj SELECT D1..Dj, sum(A) FROM {Fk|F} GROUP BY D1..Dj
//	FV:  INSERT … divide Fk by Fj joined on the common subkey,
//	     or UPDATE Fk in place.
//
// With m Vpct terms, m+1 aggregations are computed (one Fk, one Fj per
// term), as the paper prescribes.
func (p *Planner) planVertical(ctx context.Context, plan *Plan, a *analysis, opts VpctOptions) error {
	fk, col := fineSummary(a, "Fk", a.groupCols, opts.UseUpdate)
	d := newDivide(a, fk, a.groupCols, col)
	if len(d.terms) == 0 {
		return fmt.Errorf("core: vertical plan without Vpct terms")
	}
	if opts.MissingRows != MissingNone {
		if len(d.terms) != 1 {
			return fmt.Errorf("core: missing-row handling supports a single Vpct term")
		}
		if len(col) > len(d.terms) { // col also maps the plain aggregates
			return fmt.Errorf("core: missing-row handling cannot be combined with other aggregate terms")
		}
		if len(d.terms[0].totals) == 0 {
			return fmt.Errorf("core: missing-row handling requires a BY clause (totals grouping)")
		}
	}
	// Optional pre-processing: insert zero-measure rows into F for missing
	// (D1..Dj) × (Dj+1..Dk) combinations before aggregating.
	if opts.MissingRows == MissingPre {
		if err := p.addMissingPreSteps(plan, a, d.terms[0]); err != nil {
			return err
		}
	}

	// Fk, then one Fj per term. Shared summaries never cover the UPDATE
	// variant (it mutates Fk), nor virtual relations (their contents change
	// between any two scans, and the DML hook that maintains cached summaries
	// never fires for them).
	fk.table = p.temp("fk")
	key := ""
	if p.shareSummaries && !opts.UseUpdate && !p.Eng.IsVirtualTable(a.table) {
		key = fk.key(a)
	}
	mode := p.materialize(ctx, plan, a, fk, key, "create Fk", "compute fine aggregate Fk from F", fk.fromF(a))
	p.emitTotals(ctx, plan, a, d, totalsOpts{fromF: opts.FjFromF, indexes: opts.SubkeyIndexes, key: key, mode: mode})

	outNames := make([]string, len(a.items))
	for idx, it := range a.items {
		outNames[idx] = it.outName()
	}
	outNames = uniqueNames(outNames)

	// FV: divide the two aggregation levels.
	fv := fk.table
	if opts.UseUpdate {
		// FV = Fk, updated in place; one cross-table UPDATE per term.
		for ti, t := range d.terms {
			where := ""
			if len(t.totals) > 0 {
				where = " WHERE " + d.subkey(t)
			}
			plan.Steps = append(plan.Steps, Step{
				Purpose: fmt.Sprintf("divide in place: UPDATE Fk with Fj totals (term %d)", ti+1),
				SQL:     fmt.Sprintf("UPDATE %s FROM %s SET %s = %s%s", fv, t.fj, quoteIdent(t.measureCol), d.pct(t), where),
			})
		}
	} else {
		fv = plan.owns(p.temp("fv"))
		plan.Steps = append(plan.Steps,
			Step{Purpose: "create FV", SQL: fmt.Sprintf("CREATE TABLE %s (%s)", fv, a.resultDefs(outNames))},
			Step{Purpose: "compute FV: join Fk with Fj on the common subkey and divide",
				SQL: fmt.Sprintf("INSERT INTO %s SELECT %s%s", fv, strings.Join(d.project(a, a.groupCols), ", "), d.join())},
		)
	}
	// Optional post-processing: zero-fill missing combinations in FV.
	if opts.MissingRows == MissingPost {
		fv = p.addMissingPostSteps(plan, a, d.terms[0], fv, outNames, opts.UseUpdate)
	}
	plan.ResultTable, plan.ResultTables = fv, []string{fv}

	// Final projection. When the result table is Fk itself, its columns are
	// projected into select-list order under the output names.
	finalCols := quoteIdents(outNames)
	if fv == fk.table {
		finalCols = projectItems(a, a.groupCols, col, quoteIdent, func(idx int) []string { return []string{quoteIdent(col[idx])} })
		for i := range finalCols {
			finalCols[i] += " AS " + quoteIdent(outNames[i])
		}
	}
	plan.FinalSelect = selectSQL(finalCols, fv, orderBySQL(a, defaultOrder(a, outNames)), limitClause(a))
	return nil
}

// defaultOrder is the GROUP BY order the paper prescribes for displaying
// rows that add up to 100% together: the grouping columns, in select-list
// order, under their output names.
func defaultOrder(a *analysis, outNames []string) []string {
	var cols []string
	for idx, it := range a.items {
		if it.kind == itemGroupCol {
			cols = append(cols, outNames[idx])
		}
	}
	return cols
}

// orderBySQL renders the user's ORDER BY, or the default ordering when the
// query has none.
func orderBySQL(a *analysis, deflt []string) string {
	cols := quoteIdents(deflt)
	if len(a.orderBy) > 0 {
		cols = make([]string, len(a.orderBy))
		for i, k := range a.orderBy {
			cols[i] = k.String()
		}
	}
	if len(cols) == 0 {
		return ""
	}
	return " ORDER BY " + strings.Join(cols, ", ")
}

func limitClause(a *analysis) string {
	if a.limit != nil {
		return fmt.Sprintf(" LIMIT %d", *a.limit)
	}
	return ""
}

// missingFrame emits what both missing-row treatments start from: the
// distinct super-groups D1..Dj and the distinct BY combinations Dj+1..Dk of
// F, plus a third temporary of the given kind for the caller to fill; plan
// cleanup drops all three. side names the one of the two tables that holds a
// grouping column.
func (p *Planner) missingFrame(plan *Plan, a *analysis, t *vterm, third string) (sup, comb, extra string, side func(string) string) {
	sup, comb, extra = plan.owns(p.temp("sup")), plan.owns(p.temp("comb")), plan.owns(p.temp(third))
	plan.Steps = append(plan.Steps,
		distinctStep(a, "distinct super-groups D1..Dj", sup, t.totals),
		distinctStep(a, "distinct BY combinations Dj+1..Dk", comb, t.call.By))
	return sup, comb, extra, func(col string) string {
		if containsFold(t.totals, col) {
			return sup
		}
		return comb
	}
}

// distinctStep materializes the distinct combinations of cols in F.
func distinctStep(a *analysis, purpose, table string, cols []string) Step {
	return Step{Purpose: "missing rows: " + purpose,
		SQL: fmt.Sprintf("CREATE TABLE %s (%s); INSERT INTO %s SELECT DISTINCT %s FROM %s%s",
			table, strings.Join(a.colDefs(cols, cols), ", "), table, joinIdents(cols), a.table, a.whereSQL())}
}

// addMissingPreSteps implements pre-processing: insert one zero-measure row
// into F per missing (D1..Dj) × (Dj+1..Dk) combination. The measure must be
// a plain column so the inserted rows carry measure 0; every other column
// of F stays NULL. As the paper notes, this fixes measure percentages but
// skews Vpct(1) row counts, and can be expensive with high-dimensional
// cubes.
func (p *Planner) addMissingPreSteps(plan *Plan, a *analysis, t *vterm) error {
	mcol, ok := t.call.Arg.(*expr.ColumnRef)
	if !ok {
		return fmt.Errorf("core: pre-processing of missing rows requires the measure to be a plain column, not %s", t.call.Arg)
	}
	sup, comb, exist, side := p.missingFrame(plan, a, t, "exist")
	plan.Steps = append(plan.Steps, distinctStep(a, "existing D1..Dk combinations", exist, a.groupCols))
	// Insert a zero-measure row for each (sup × comb) absent from exist.
	var selectCols, onParts []string
	for _, g := range a.groupCols {
		selectCols = append(selectCols, side(g)+"."+quoteIdent(g))
	}
	for _, g := range append(append([]string{}, t.totals...), t.call.By...) {
		onParts = append(onParts, equalityChainNullSafe(exist, side(g), []string{g}))
	}
	plan.Steps = append(plan.Steps, Step{
		Purpose: "missing rows: insert zero-measure rows into F",
		SQL: fmt.Sprintf("INSERT INTO %s (%s, %s) SELECT %s, 0 FROM %s, %s LEFT OUTER JOIN %s ON %s WHERE %s.%s IS NULL",
			a.table, joinIdents(a.groupCols), quoteIdent(mcol.Name), strings.Join(selectCols, ", "),
			sup, comb, exist, strings.Join(onParts, " AND "),
			exist, quoteIdent(a.groupCols[0])),
	})
	return nil
}

// addMissingPostSteps implements post-processing: build FVfull with one row
// per (D1..Dj) × (Dj+1..Dk) combination, zero-filling percentages for
// combinations absent from FV. Returns the full result table name.
func (p *Planner) addMissingPostSteps(plan *Plan, a *analysis, t *vterm, fv string, outNames []string, updateVariant bool) string {
	sup, comb, full, side := p.missingFrame(plan, a, t, "fvfull")
	// FV columns carry output names under the INSERT variant and Fk's own
	// names under the UPDATE variant.
	fvName := map[string]string{}
	var selectCols, onParts []string
	for idx, it := range a.items {
		switch {
		case it.kind == itemGroupCol:
			selectCols = append(selectCols, side(it.col)+"."+quoteIdent(it.col))
			if lo := strings.ToLower(it.col); fvName[lo] == "" {
				fvName[lo] = outNames[idx]
			}
		case updateVariant:
			selectCols = append(selectCols, "coalesce(v."+quoteIdent(t.measureCol)+", 0)")
		default:
			selectCols = append(selectCols, "coalesce(v."+quoteIdent(outNames[idx])+", 0)")
		}
	}
	// Join FV on every group column: totals columns come from sup, BY columns
	// from comb.
	for _, g := range append(append([]string{}, t.totals...), t.call.By...) {
		name, ok := fvName[strings.ToLower(g)]
		if updateVariant || !ok {
			name = g
		}
		onParts = append(onParts, nullSafeEq("v."+quoteIdent(name), side(g)+"."+quoteIdent(g)))
	}
	plan.Steps = append(plan.Steps,
		// FVfull mirrors the user-facing result: group columns + percentage.
		Step{Purpose: "create FVfull", SQL: fmt.Sprintf("CREATE TABLE %s (%s)", full, a.resultDefs(outNames))},
		Step{Purpose: "missing rows: zero-fill absent combinations into FVfull",
			SQL: fmt.Sprintf("INSERT INTO %s SELECT %s FROM %s, %s LEFT OUTER JOIN %s v ON %s",
				full, strings.Join(selectCols, ", "), sup, comb, fv, strings.Join(onParts, " AND "))},
	)
	return full
}
