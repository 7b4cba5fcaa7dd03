package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/storage"
)

// planHorizontalAgg generates plans for the companion paper's horizontal
// aggregations: any standard aggregate with a BY subgrouping list. Two
// strategies exist (its Table 3): CASE — one aggregation whose terms are
// CASE expressions — and SPJ — one filtered aggregate table per combination
// assembled with left outer joins. Each runs either directly from F or
// indirectly from the vertical pre-aggregate FV.
func (p *Planner) planHorizontalAgg(ctx context.Context, plan *Plan, a *analysis, opts HaggOptions) error {
	hl, err := p.horizontalLayout(ctx, plan, a)
	if err != nil {
		return err
	}
	if len(hl.terms) == 0 {
		return fmt.Errorf("core: horizontal-aggregation plan without BY terms")
	}

	// Source relation: F directly, or the vertical pre-aggregate FV. extraSel
	// renders each plain vertical aggregate over it.
	source, sourceWhere := a.table, a.whereSQL()
	var extraSel []string
	if opts.FromFV {
		if err := a.fromFVError(); err != nil {
			return err
		}
		source, extraSel = p.emitHaggFV(plan, a, hl)
		sourceWhere = ""
	} else {
		for _, idx := range hl.extras {
			extraSel = append(extraSel, a.items[idx].agg.String())
		}
	}

	switch opts.Method {
	case HaggCASE:
		if err := hl.fit(p.MaxColumns); err != nil {
			return err
		}
		var vals, extraVals []hvalue
		for _, t := range hl.terms {
			for _, c := range t.combos {
				vals = append(vals, hvalue{name: hl.valueNames[len(vals)], typ: aggResultType(t.call, a.schema),
					sel: haggCaseTerm(t, comboCond("", t.call.By, c.vals))})
			}
		}
		for xi, idx := range hl.extras {
			extraVals = append(extraVals, hvalue{name: hl.extraNames[xi], typ: aggResultType(a.items[idx].agg, a.schema), sel: extraSel[xi]})
		}
		purpose := "compute FH with CASE terms directly from F"
		if opts.FromFV {
			purpose = "compute FH with CASE terms from FV"
		}
		holder := p.emitHorizontalInserts(plan, a, hl, source, sourceWhere, purpose, vals, extraVals)
		p.finishHorizontalPlan(plan, a, hl, holder)
		return nil
	case HaggSPJ:
		return p.planHaggSPJ(plan, a, hl, source, sourceWhere, extraSel)
	default:
		return fmt.Errorf("core: unknown horizontal-aggregation method %v", opts.Method)
	}
}

// emitHaggFV builds the vertical pre-aggregate FV grouped by D1..Dj plus
// the union of every BY column, carrying the partial aggregate of each term
// (recorded in its fine columns) and extra (returned re-aggregated); the
// caller has checked fromFVError, so each has a partial form.
func (p *Planner) emitHaggFV(plan *Plan, a *analysis, hl *hlayout) (fv string, extraSel []string) {
	fv = plan.owns(p.temp("fvagg"))
	fineGroup := a.fineGroup()
	defs, sels := a.colDefs(fineGroup, fineGroup), quoteIdents(fineGroup)
	for _, t := range hl.terms {
		pa, _ := partialOf(t.call)
		t.fine = p.carry(a, t.call, pa, "pc", &sels, &defs)
	}
	for _, idx := range hl.extras {
		pa, _ := partialOf(a.items[idx].agg)
		extraSel = append(extraSel, pa.reagg(p.carry(a, a.items[idx].agg, pa, "pc", &sels, &defs), nil))
	}
	plan.Steps = append(plan.Steps,
		Step{Purpose: "create FV", SQL: fmt.Sprintf("CREATE TABLE %s (%s)", fv, strings.Join(defs, ", "))},
		Step{Purpose: "compute the vertical pre-aggregate FV from F",
			SQL: "INSERT INTO " + fv + " " + selectSQL(sels, a.table, a.whereSQL(), " GROUP BY "+joinIdents(fineGroup))},
	)
	return fv, extraSel
}

// haggCaseTerm renders one CASE-strategy aggregation term. Missing
// combinations yield NULL (matching the SPJ outer joins), unless the call
// carries a DEFAULT literal.
func haggCaseTerm(t *hterm, cond string) string {
	call := t.call
	guard := func(v string) string { return "CASE WHEN " + cond + " THEN " + v + " ELSE NULL END" }
	var s string
	switch {
	case t.fine != nil:
		// From FV: re-aggregate the term's partials (a count as the sum of
		// partial counts).
		pa, _ := partialOf(call)
		s = pa.reagg(t.fine, guard)
	case call.Distinct:
		// Presence guard: a combination with no rows at all is NULL
		// (matching the SPJ outer join); one whose rows exist but whose
		// values are all NULL counts 0 (matching count()).
		s = fmt.Sprintf("CASE WHEN count(CASE WHEN %s THEN 1 END) = 0 THEN NULL ELSE count(DISTINCT CASE WHEN %s THEN %s END) END",
			cond, cond, call.Arg.String())
	case call.Fn == expr.AggCount && call.Star:
		// sum of 1s instead of count, so a missing combination is NULL
		// (matching the SPJ outer join), not 0.
		s = "sum(" + guard("1") + ")"
	case call.Fn == expr.AggCount:
		s = fmt.Sprintf("CASE WHEN count(CASE WHEN %s THEN 1 END) = 0 THEN NULL ELSE count(CASE WHEN %s THEN %s END) END",
			cond, cond, call.Arg.String())
	default:
		s = string(call.Fn) + "(" + guard(call.Arg.String()) + ")"
	}
	if call.Default != nil {
		s = "coalesce(" + s + ", " + call.Default.String() + ")"
	}
	return s
}

// plainAggSQL renders a horizontal term's aggregate without its BY list and
// DEFAULT: what one already-filtered group of rows aggregates to.
func plainAggSQL(call *expr.AggCall) string {
	switch {
	case call.Distinct:
		return "count(DISTINCT " + call.Arg.String() + ")"
	case call.Fn == expr.AggCount && call.Star:
		return "count(*)"
	default:
		return fmt.Sprintf("%s(%s)", call.Fn, call.Arg.String())
	}
}

// planHaggSPJ generates the relational-operators-only strategy: a key table
// F0 holding every D1..Dj combination, one filtered aggregate table FI per
// (term, combination), and left outer joins assembling FH. An empty GROUP
// BY uses a constant grouping key, as the companion paper suggests.
func (p *Planner) planHaggSPJ(plan *Plan, a *analysis, hl *hlayout, source, sourceWhere string, extraSel []string) error {
	width := len(hl.groupNames) + len(hl.valueNames) + len(hl.extraNames)
	if p.MaxColumns > 0 && width > p.MaxColumns {
		return fmt.Errorf("core: SPJ result needs %d columns, above MaxColumns=%d; use the CASE strategy, which partitions vertically", width, p.MaxColumns)
	}
	constKey := len(a.groupCols) == 0
	keyNames, keyDefs, keySel := hl.groupNames, a.colDefs(a.groupCols, hl.groupNames), joinIdents(a.groupCols)
	pkey := ", PRIMARY KEY(" + joinIdents(keyNames) + ")"
	if constKey {
		keyNames, keyDefs, keySel, pkey = []string{"_g"}, []string{colDef("_g", storage.TypeInt)}, "0", ""
	}

	// F0: the key table defining the result rows. FH's columns, select list
	// and outer joins accumulate as the tables they read are emitted.
	f0 := plan.owns(p.temp("f0"))
	populate := Step{Purpose: "populate F0 with the constant group", SQL: "INSERT INTO " + f0 + " VALUES (0)"}
	var fhDefs, fhSel []string
	if !constKey {
		populate = Step{Purpose: "populate F0 with every D1..Dj combination",
			SQL: fmt.Sprintf("INSERT INTO %s SELECT DISTINCT %s FROM %s%s", f0, keySel, source, sourceWhere)}
		fhDefs, fhSel = append(fhDefs, keyDefs...), []string{qualifiedList(f0, keyNames)}
	}
	plan.Steps = append(plan.Steps,
		Step{Purpose: "create F0", SQL: fmt.Sprintf("CREATE TABLE %s (%s%s)", f0, strings.Join(keyDefs, ", "), pkey)}, populate)
	from := f0
	outerJoin := func(t string) {
		from += fmt.Sprintf(" LEFT OUTER JOIN %s ON %s", t, equalityChainNullSafe(f0, t, keyNames))
	}

	// FI: one filtered aggregate per (term, combination).
	n, measure := 0, measureName(keyNames)
	for _, t := range hl.terms {
		typ := aggResultType(t.call, a.schema)
		aggSel := plainAggSQL(t.call)
		if t.fine != nil {
			pa, _ := partialOf(t.call)
			aggSel = pa.reagg(t.fine, nil)
		}
		for _, c := range t.combos {
			n++
			fi := plan.owns(p.temp("fi"))
			cond := comboCond("", t.call.By, c.vals)
			where := " WHERE " + cond
			if sourceWhere != "" {
				where = andWhere(cond, a)
			}
			defs := append(append([]string{}, keyDefs...), colDef(measure, typ))
			plan.Steps = append(plan.Steps,
				Step{Purpose: fmt.Sprintf("create F%d", n),
					SQL: fmt.Sprintf("CREATE TABLE %s (%s%s)", fi, strings.Join(defs, ", "), pkey)},
				Step{Purpose: fmt.Sprintf("aggregate combination %q into F%d", c.label, n),
					SQL: "INSERT INTO " + fi + " " + selectSQL([]string{keySel, aggSel}, source, where, groupByClause(a.groupCols))},
			)
			col := fi + "." + quoteIdent(measure)
			if t.call.Default != nil {
				col = "coalesce(" + col + ", " + t.call.Default.String() + ")"
			}
			fhDefs, fhSel = append(fhDefs, colDef(hl.valueNames[n-1], typ)), append(fhSel, col)
			outerJoin(fi)
		}
	}
	plan.N = n

	// Extras: one aggregate table over all rows per group.
	if len(hl.extras) > 0 {
		fx := plan.owns(p.temp("fx"))
		defs := append([]string{}, keyDefs...)
		for xi, idx := range hl.extras {
			typ := aggResultType(a.items[idx].agg, a.schema)
			defs = append(defs, colDef(fmt.Sprintf("x%d", xi+1), typ))
			fhDefs, fhSel = append(fhDefs, colDef(hl.extraNames[xi], typ)), append(fhSel, fmt.Sprintf("%s.x%d", fx, xi+1))
		}
		plan.Steps = append(plan.Steps,
			Step{Purpose: "create extras table", SQL: fmt.Sprintf("CREATE TABLE %s (%s)", fx, strings.Join(defs, ", "))},
			Step{Purpose: "aggregate the plain vertical terms",
				SQL: "INSERT INTO " + fx + " " + selectSQL(append([]string{keySel}, extraSel...), source, sourceWhere, groupByClause(a.groupCols))},
		)
		outerJoin(fx)
		n++
	}

	// FH: assemble with left outer joins on the key.
	fh := plan.owns(p.temp("fh"))
	plan.ResultTable, plan.ResultTables = fh, []string{fh}
	plan.Steps = append(plan.Steps,
		Step{Purpose: "create FH", SQL: fmt.Sprintf("CREATE TABLE %s (%s%s)", fh, strings.Join(fhDefs, ", "), pkey)},
		Step{Purpose: fmt.Sprintf("assemble FH with %d left outer joins", n),
			SQL: "INSERT INTO " + fh + " " + selectSQL(fhSel, from)},
	)
	p.finishHorizontalPlan(plan, a, hl, nil)
	return nil
}
