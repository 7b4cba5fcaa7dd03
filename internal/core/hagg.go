package core

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/storage"
)

// haggTerm is one analyzed horizontal-aggregation select item.
type haggTerm struct {
	itemIdx int
	call    *expr.AggCall
	combos  []combo
}

// planHorizontalAgg generates plans for the companion paper's horizontal
// aggregations: any standard aggregate with a BY subgrouping list. Two
// strategies exist (its Table 3): CASE — one aggregation whose terms are
// CASE expressions — and SPJ — one filtered aggregate table per combination
// assembled with left outer joins. Each runs either directly from F or
// indirectly from the vertical pre-aggregate FV.
func (p *Planner) planHorizontalAgg(a *analysis, opts HaggOptions) (*Plan, error) {
	plan := &Plan{Class: ClassHorizontalAgg}

	var terms []*haggTerm
	var extras []int
	for idx, it := range a.items {
		switch it.kind {
		case itemHoriz:
			combos, err := p.feedbackCombos(a.table, it.agg.By, a.whereSQL())
			if err != nil {
				return nil, err
			}
			if len(combos) == 0 {
				return nil, fmt.Errorf("core: horizontal aggregation over empty input: no BY combinations in %s", a.table)
			}
			terms = append(terms, &haggTerm{itemIdx: idx, call: it.agg, combos: combos})
		case itemVertAgg:
			extras = append(extras, idx)
		}
	}
	if len(terms) == 0 {
		return nil, fmt.Errorf("core: horizontal-aggregation plan without BY terms")
	}
	if opts.FromFV {
		for _, t := range terms {
			if t.call.Distinct {
				return nil, fmt.Errorf("core: count(DISTINCT …) is not distributive; the from-FV strategy cannot evaluate it — use the direct strategy")
			}
		}
		for _, idx := range extras {
			if a.items[idx].agg.Distinct {
				return nil, fmt.Errorf("core: count(DISTINCT …) extra terms require the direct strategy")
			}
		}
	}

	// Output naming, exactly as for Hpct.
	var names []string
	names = append(names, a.groupCols...)
	multi := len(terms) > 1
	for _, t := range terms {
		prefix := ""
		if multi {
			if al := a.items[t.itemIdx].alias; al != "" {
				prefix = al + ":"
			} else if cr, ok := t.call.Arg.(*expr.ColumnRef); ok {
				prefix = string(t.call.Fn) + "_" + cr.Name + ":"
			} else {
				prefix = fmt.Sprintf("%s%d:", t.call.Fn, t.itemIdx)
			}
		}
		for _, c := range t.combos {
			names = append(names, prefix+c.label)
		}
	}
	for _, idx := range extras {
		if al := a.items[idx].alias; al != "" {
			names = append(names, al)
		} else {
			names = append(names, a.items[idx].agg.String())
		}
	}
	names = uniqueNames(names)
	groupNames := names[:len(a.groupCols)]
	valueNames := names[len(a.groupCols) : len(names)-len(extras)]
	extraNames := names[len(names)-len(extras):]

	// ---- source relation: F directly, or the vertical pre-aggregate FV ----
	source := a.table
	sourceWhere := a.whereSQL()
	// partialCols maps term index (or ^extraIdx for extras) to its FV
	// partial-aggregate columns.
	partialCols := map[int][]string{}
	if opts.FromFV {
		fv, err := p.emitHaggFV(plan, a, terms, extras, partialCols)
		if err != nil {
			return nil, err
		}
		source = fv
		sourceWhere = ""
	}

	switch opts.Method {
	case HaggCASE:
		if opts.HashPivot {
			if opts.FromFV || len(terms) != 1 || len(extras) != 0 {
				return nil, fmt.Errorf("core: HashPivot supports a single BY term evaluated directly from F")
			}
			if terms[0].call.Distinct {
				return nil, fmt.Errorf("core: HashPivot does not support count(DISTINCT …)")
			}
			p.planHashPivot(plan, a, terms[0].call, terms[0].combos, groupNames, valueNames)
			return plan, nil
		}
		var vals []hvalue
		vi := 0
		for ti, t := range terms {
			for _, c := range t.combos {
				vals = append(vals, hvalue{
					name: valueNames[vi],
					typ:  aggResultType(t.call, a.schema),
					sel:  p.haggCaseTerm(ti, t, comboCond("", t.call.By, c.vals), opts.FromFV, partialCols),
				})
				vi++
			}
		}
		var extraVals []hvalue
		for xi, idx := range extras {
			extraVals = append(extraVals, hvalue{
				name: extraNames[xi],
				typ:  aggResultType(a.items[idx].agg, a.schema),
				sel:  p.haggExtraSQL(xi, a.items[idx].agg, opts.FromFV, partialCols),
			})
		}
		purpose := "compute FH with CASE terms directly from F"
		if opts.FromFV {
			purpose = "compute FH with CASE terms from FV"
		}
		holder := p.emitHorizontalInserts(plan, a, source, groupNames, vals, extraVals,
			purpose, a.groupCols, sourceWhere)
		p.finishHorizontalPlan(plan, a, groupNames, valueNames, extraNames, holder)
		return plan, nil

	case HaggSPJ:
		return p.planHaggSPJ(plan, a, terms, extras, groupNames, valueNames, extraNames,
			source, sourceWhere, opts, partialCols)
	default:
		return nil, fmt.Errorf("core: unknown horizontal-aggregation method %v", opts.Method)
	}
}

// emitHaggFV builds the vertical pre-aggregate FV grouped by D1..Dj plus
// the union of every BY column, carrying distributive partials for each
// term and extra.
func (p *Planner) emitHaggFV(plan *Plan, a *analysis, terms []*haggTerm, extras []int,
	partialCols map[int][]string) (string, error) {

	fv := p.temp("fvagg")
	plan.Cleanup = append(plan.Cleanup, Step{Purpose: "drop FV", SQL: "DROP TABLE IF EXISTS " + fv})
	fineGroup := append([]string{}, a.groupCols...)
	for _, t := range terms {
		for _, b := range t.call.By {
			if !containsFold(fineGroup, b) {
				fineGroup = append(fineGroup, b)
			}
		}
	}
	var defs, sels []string
	for _, g := range fineGroup {
		defs = append(defs, colDef(g, a.schema[a.schema.ColumnIndex(g)].Type))
		sels = append(sels, quoteIdent(g))
	}
	addPartial := func(key int, call *expr.AggCall) error {
		switch call.Fn {
		case expr.AggSum, expr.AggMin, expr.AggMax:
			c := p.temp("pc")
			defs = append(defs, colDef(c, aggResultType(call, a.schema)))
			sels = append(sels, fmt.Sprintf("%s(%s) AS %s", call.Fn, call.Arg.String(), c))
			partialCols[key] = []string{c}
		case expr.AggCount:
			c := p.temp("pc")
			arg := "*"
			if call.Arg != nil {
				arg = call.Arg.String()
			}
			defs = append(defs, colDef(c, storage.TypeInt))
			sels = append(sels, fmt.Sprintf("count(%s) AS %s", arg, c))
			partialCols[key] = []string{c}
		case expr.AggAvg:
			s, c := p.temp("pc"), p.temp("pc")
			defs = append(defs, colDef(s, storage.TypeFloat), colDef(c, storage.TypeInt))
			sels = append(sels,
				fmt.Sprintf("sum(%s) AS %s", call.Arg.String(), s),
				fmt.Sprintf("count(%s) AS %s", call.Arg.String(), c))
			partialCols[key] = []string{s, c}
		default:
			return fmt.Errorf("core: unsupported horizontal aggregate %s", call.Fn)
		}
		return nil
	}
	for ti, t := range terms {
		if err := addPartial(ti, t.call); err != nil {
			return "", err
		}
	}
	for xi, idx := range extras {
		if err := addPartial(^xi, a.items[idx].agg); err != nil {
			return "", err
		}
	}
	plan.Steps = append(plan.Steps,
		Step{Purpose: "create FV", SQL: fmt.Sprintf("CREATE TABLE %s (%s)", fv, strings.Join(defs, ", "))},
		Step{Purpose: "compute the vertical pre-aggregate FV from F",
			SQL: fmt.Sprintf("INSERT INTO %s SELECT %s FROM %s%s GROUP BY %s",
				fv, strings.Join(sels, ", "), a.table, a.whereSQL(), joinIdents(fineGroup))},
	)
	return fv, nil
}

// haggCaseTerm renders one CASE-strategy aggregation term. Missing
// combinations yield NULL (matching the SPJ outer joins), unless the call
// carries a DEFAULT literal.
func (p *Planner) haggCaseTerm(ti int, t *haggTerm, cond string, fromFV bool,
	partialCols map[int][]string) string {

	call := t.call
	var s string
	if fromFV {
		pc := partialCols[ti]
		switch call.Fn {
		case expr.AggSum, expr.AggCount:
			// count re-aggregates as a sum of partial counts.
			s = fmt.Sprintf("sum(CASE WHEN %s THEN %s ELSE NULL END)", cond, quoteIdent(pc[0]))
		case expr.AggMin, expr.AggMax:
			s = fmt.Sprintf("%s(CASE WHEN %s THEN %s ELSE NULL END)", call.Fn, cond, quoteIdent(pc[0]))
		case expr.AggAvg:
			s = fmt.Sprintf("sum(CASE WHEN %s THEN %s ELSE NULL END) / sum(CASE WHEN %s THEN %s ELSE NULL END)",
				cond, quoteIdent(pc[0]), cond, quoteIdent(pc[1]))
		}
	} else {
		switch {
		case call.Distinct:
			// Presence guard: a combination with no rows at all is NULL
			// (matching the SPJ outer join); one whose rows exist but whose
			// values are all NULL counts 0 (matching count()).
			s = fmt.Sprintf("CASE WHEN count(CASE WHEN %s THEN 1 END) = 0 THEN NULL ELSE count(DISTINCT CASE WHEN %s THEN %s END) END",
				cond, cond, call.Arg.String())
		case call.Fn == expr.AggCount && call.Star:
			// sum of 1s instead of count, so a missing combination is NULL
			// (matching the SPJ outer join), not 0.
			s = fmt.Sprintf("sum(CASE WHEN %s THEN 1 ELSE NULL END)", cond)
		case call.Fn == expr.AggCount:
			s = fmt.Sprintf("CASE WHEN count(CASE WHEN %s THEN 1 END) = 0 THEN NULL ELSE count(CASE WHEN %s THEN %s END) END",
				cond, cond, call.Arg.String())
		default:
			s = fmt.Sprintf("%s(CASE WHEN %s THEN %s ELSE NULL END)", call.Fn, cond, call.Arg.String())
		}
	}
	if call.Default != nil {
		s = "coalesce(" + s + ", " + call.Default.String() + ")"
	}
	return s
}

// haggExtraSQL renders a plain vertical aggregate term over the source.
func (p *Planner) haggExtraSQL(xi int, call *expr.AggCall, fromFV bool,
	partialCols map[int][]string) string {

	if !fromFV {
		return call.String()
	}
	pc := partialCols[^xi]
	switch call.Fn {
	case expr.AggSum, expr.AggCount:
		return "sum(" + quoteIdent(pc[0]) + ")"
	case expr.AggMin, expr.AggMax:
		return string(call.Fn) + "(" + quoteIdent(pc[0]) + ")"
	case expr.AggAvg:
		return fmt.Sprintf("sum(%s) / sum(%s)", quoteIdent(pc[0]), quoteIdent(pc[1]))
	}
	return call.String()
}

// planHaggSPJ generates the relational-operators-only strategy: a key table
// F0 holding every D1..Dj combination, one filtered aggregate table FI per
// (term, combination), and left outer joins assembling FH. An empty GROUP
// BY uses a constant grouping key, as the companion paper suggests.
func (p *Planner) planHaggSPJ(plan *Plan, a *analysis, terms []*haggTerm, extras []int,
	groupNames, valueNames, extraNames []string, source, sourceWhere string,
	opts HaggOptions, partialCols map[int][]string) (*Plan, error) {

	totalWidth := len(groupNames) + len(valueNames) + len(extraNames)
	if p.MaxColumns > 0 && totalWidth > p.MaxColumns {
		return nil, fmt.Errorf("core: SPJ result needs %d columns, above MaxColumns=%d; use the CASE strategy, which partitions vertically", totalWidth, p.MaxColumns)
	}

	keyCols := a.groupCols
	keyNames := groupNames
	constKey := len(keyCols) == 0
	if constKey {
		keyNames = []string{"_g"}
	}

	// F0: the key table defining the result rows.
	f0 := p.temp("f0")
	plan.Cleanup = append(plan.Cleanup, Step{Purpose: "drop F0", SQL: "DROP TABLE IF EXISTS " + f0})
	var keyDefs []string
	if constKey {
		keyDefs = []string{colDef("_g", storage.TypeInt)}
		plan.Steps = append(plan.Steps,
			Step{Purpose: "create F0", SQL: fmt.Sprintf("CREATE TABLE %s (%s)", f0, strings.Join(keyDefs, ", "))},
			Step{Purpose: "populate F0 with the constant group", SQL: "INSERT INTO " + f0 + " VALUES (0)"},
		)
	} else {
		for gi, g := range keyCols {
			keyDefs = append(keyDefs, colDef(keyNames[gi], a.schema[a.schema.ColumnIndex(g)].Type))
		}
		plan.Steps = append(plan.Steps,
			Step{Purpose: "create F0", SQL: fmt.Sprintf("CREATE TABLE %s (%s, PRIMARY KEY(%s))",
				f0, strings.Join(keyDefs, ", "), joinIdents(keyNames))},
			Step{Purpose: "populate F0 with every D1..Dj combination",
				SQL: fmt.Sprintf("INSERT INTO %s SELECT DISTINCT %s FROM %s%s",
					f0, joinIdents(keyCols), source, sourceWhere)},
		)
	}

	// FI: one filtered aggregate per (term, combination).
	type fiTable struct {
		name    string
		valName string
		typ     storage.ColumnType
		deflt   *expr.Literal
	}
	var fis []fiTable
	vi := 0
	for ti, t := range terms {
		for _, c := range t.combos {
			fi := p.temp("fi")
			plan.Cleanup = append(plan.Cleanup, Step{Purpose: "drop FI", SQL: "DROP TABLE IF EXISTS " + fi})
			cond := comboCond("", t.call.By, c.vals)
			where := " WHERE " + cond
			if sourceWhere != "" {
				where = andWhere(cond, a)
			}
			var defs []string
			defs = append(defs, keyDefs...)
			defs = append(defs, colDef("A", aggResultType(t.call, a.schema)))
			keySel := joinIdents(keyCols)
			if constKey {
				keySel = "0"
			}
			aggSel := p.haggSPJAggSQL(ti, t.call, opts.FromFV, partialCols)
			pkey := ""
			if !constKey {
				pkey = ", PRIMARY KEY(" + joinIdents(keyNames) + ")"
			}
			plan.Steps = append(plan.Steps,
				Step{Purpose: fmt.Sprintf("create F%d", len(fis)+1),
					SQL: fmt.Sprintf("CREATE TABLE %s (%s%s)", fi, strings.Join(defs, ", "), pkey)},
				Step{Purpose: fmt.Sprintf("aggregate combination %q into F%d", c.label, len(fis)+1),
					SQL: fmt.Sprintf("INSERT INTO %s SELECT %s, %s FROM %s%s%s",
						fi, keySel, aggSel, source, where, groupByClause(keyCols))},
			)
			fis = append(fis, fiTable{name: fi, valName: valueNames[vi],
				typ: aggResultType(t.call, a.schema), deflt: t.call.Default})
			vi++
		}
	}

	// Extras: one aggregate table over all rows per group.
	var extraTable string
	if len(extras) > 0 {
		extraTable = p.temp("fx")
		plan.Cleanup = append(plan.Cleanup, Step{Purpose: "drop extras table", SQL: "DROP TABLE IF EXISTS " + extraTable})
		var defs, sels []string
		defs = append(defs, keyDefs...)
		if constKey {
			sels = append(sels, "0")
		} else {
			sels = append(sels, joinIdents(keyCols))
		}
		for xi, idx := range extras {
			call := a.items[idx].agg
			defs = append(defs, colDef(fmt.Sprintf("x%d", xi+1), aggResultType(call, a.schema)))
			sels = append(sels, p.haggExtraSQL(xi, call, opts.FromFV, partialCols))
		}
		plan.Steps = append(plan.Steps,
			Step{Purpose: "create extras table", SQL: fmt.Sprintf("CREATE TABLE %s (%s)", extraTable, strings.Join(defs, ", "))},
			Step{Purpose: "aggregate the plain vertical terms",
				SQL: fmt.Sprintf("INSERT INTO %s SELECT %s FROM %s%s%s",
					extraTable, strings.Join(sels, ", "), source, sourceWhere, groupByClause(keyCols))},
		)
	}

	// FH: assemble with left outer joins on the key.
	fh := p.temp("fh")
	plan.Cleanup = append(plan.Cleanup, Step{Purpose: "drop FH", SQL: "DROP TABLE IF EXISTS " + fh})
	plan.ResultTable = fh
	plan.ResultTables = []string{fh}
	plan.N = len(fis)

	var fhDefs []string
	if !constKey {
		fhDefs = append(fhDefs, keyDefs...)
	}
	for _, fi := range fis {
		fhDefs = append(fhDefs, colDef(fi.valName, fi.typ))
	}
	for xi, idx := range extras {
		fhDefs = append(fhDefs, colDef(extraNames[xi], aggResultType(a.items[idx].agg, a.schema)))
	}

	var sel []string
	if !constKey {
		sel = append(sel, qualifiedList(f0, keyNames))
	}
	for _, fi := range fis {
		col := fi.name + ".A"
		if fi.deflt != nil {
			col = "coalesce(" + col + ", " + fi.deflt.String() + ")"
		}
		sel = append(sel, col)
	}
	from := f0
	for _, fi := range fis {
		from += fmt.Sprintf(" LEFT OUTER JOIN %s ON %s", fi.name, equalityChainNullSafe(f0, fi.name, keyNames))
	}
	if extraTable != "" {
		for xi := range extras {
			sel = append(sel, fmt.Sprintf("%s.x%d", extraTable, xi+1))
		}
		from += fmt.Sprintf(" LEFT OUTER JOIN %s ON %s", extraTable, equalityChainNullSafe(f0, extraTable, keyNames))
	}
	pkey := ""
	if !constKey {
		pkey = ", PRIMARY KEY(" + joinIdents(keyNames) + ")"
	}
	plan.Steps = append(plan.Steps,
		Step{Purpose: "create FH", SQL: fmt.Sprintf("CREATE TABLE %s (%s%s)", fh, strings.Join(fhDefs, ", "), pkey)},
		Step{Purpose: fmt.Sprintf("assemble FH with %d left outer joins", len(fis)+btoi(extraTable != "")),
			SQL: fmt.Sprintf("INSERT INTO %s SELECT %s FROM %s", fh, strings.Join(sel, ", "), from)},
	)

	holder := make(map[string]string)
	for _, fi := range fis {
		holder[fi.valName] = fh
	}
	for _, xn := range extraNames {
		holder[xn] = fh
	}
	p.finishHorizontalPlan(plan, a, groupNames, valueNames, extraNames, holder)
	return plan, nil
}

// haggSPJAggSQL renders the aggregate expression of one FI table.
func (p *Planner) haggSPJAggSQL(ti int, call *expr.AggCall, fromFV bool,
	partialCols map[int][]string) string {

	if fromFV {
		pc := partialCols[ti]
		switch call.Fn {
		case expr.AggSum, expr.AggCount:
			return "sum(" + quoteIdent(pc[0]) + ")"
		case expr.AggMin, expr.AggMax:
			return string(call.Fn) + "(" + quoteIdent(pc[0]) + ")"
		case expr.AggAvg:
			return fmt.Sprintf("sum(%s) / sum(%s)", quoteIdent(pc[0]), quoteIdent(pc[1]))
		}
	}
	switch {
	case call.Distinct:
		return "count(DISTINCT " + call.Arg.String() + ")"
	case call.Fn == expr.AggCount && call.Star:
		return "count(*)"
	default:
		return fmt.Sprintf("%s(%s)", call.Fn, call.Arg.String())
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
