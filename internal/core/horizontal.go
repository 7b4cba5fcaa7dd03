package core

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/storage"
)

// hvalue is one value column of a horizontal result: its output name, type,
// and the SELECT expression that fills it.
type hvalue struct {
	name string
	typ  storage.ColumnType
	sel  string
}

// planHorizontalPct generates the Hpct evaluation plan of Section 3.2. The
// two strategies of Table 5 are: computing FH directly from F with one scan
// of sum(CASE…)/sum(A) terms, or computing the vertical percentage table FV
// first and transposing it. Either way the plan starts with the feedback
// process the paper describes: reading the distinct BY combinations to
// define FH's columns.
func (p *Planner) planHorizontalPct(a *analysis, opts HpctOptions) (*Plan, error) {
	plan := &Plan{Class: ClassHorizontalPct}

	type hterm struct {
		itemIdx int
		call    *expr.AggCall
		combos  []combo
	}
	var terms []*hterm
	var extras []int
	for idx, it := range a.items {
		switch it.kind {
		case itemPct:
			if it.agg.Fn != expr.AggHpct {
				return nil, fmt.Errorf("core: internal: %s in horizontal plan", it.agg.Fn)
			}
			combos, err := p.feedbackCombos(a.table, it.agg.By, a.whereSQL())
			if err != nil {
				return nil, err
			}
			if len(combos) == 0 {
				return nil, fmt.Errorf("core: Hpct over empty input: no BY combinations in %s", a.table)
			}
			terms = append(terms, &hterm{itemIdx: idx, call: it.agg, combos: combos})
		case itemVertAgg:
			extras = append(extras, idx)
		}
	}
	if len(terms) == 0 {
		return nil, fmt.Errorf("core: horizontal plan without Hpct terms")
	}

	// Name every output column, then uniquify.
	var names []string
	for _, g := range a.groupCols {
		names = append(names, g)
	}
	multi := len(terms) > 1
	for _, t := range terms {
		prefix := ""
		if multi {
			if al := a.items[t.itemIdx].alias; al != "" {
				prefix = al + ":"
			} else if cr, ok := t.call.Arg.(*expr.ColumnRef); ok {
				prefix = cr.Name + ":"
			} else {
				prefix = fmt.Sprintf("pct%d:", t.itemIdx)
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

	totalWidth := len(names)
	if p.MaxColumns > 0 && totalWidth > p.MaxColumns && len(a.groupCols)+1+len(extras) > p.MaxColumns {
		return nil, fmt.Errorf("core: result needs %d columns but MaxColumns is %d and partitions cannot fit the %d key/extra columns",
			totalWidth, p.MaxColumns, len(a.groupCols)+len(extras))
	}

	if opts.FromFV {
		if opts.HashPivot {
			return nil, fmt.Errorf("core: HashPivot applies to the direct (from F) strategy")
		}
		if len(terms) != 1 {
			return nil, fmt.Errorf("core: the from-FV strategy supports a single Hpct term; use the direct strategy for %d terms", len(terms))
		}
		return p.planHpctFromFV(plan, a, terms[0].call, terms[0].combos, groupNames, valueNames, extras, extraNames, opts)
	}

	// ---- direct strategy: one scan of F ----
	var vals []hvalue
	vi := 0
	for _, t := range terms {
		mSQL := t.call.Arg.String()
		for _, c := range t.combos {
			cond := comboCond("", t.call.By, c.vals)
			vals = append(vals, hvalue{
				name: valueNames[vi],
				typ:  storage.TypeFloat,
				sel: fmt.Sprintf("CASE WHEN sum(%s) <> 0 THEN sum(CASE WHEN %s THEN %s ELSE 0 END) / sum(%s) ELSE NULL END",
					mSQL, cond, mSQL, mSQL),
			})
			vi++
		}
	}
	var extraVals []hvalue
	for n, idx := range extras {
		call := a.items[idx].agg
		extraVals = append(extraVals, hvalue{
			name: extraNames[n],
			typ:  aggResultType(call, a.schema),
			sel:  call.String(),
		})
	}

	if opts.HashPivot {
		if len(terms) != 1 {
			return nil, fmt.Errorf("core: HashPivot supports a single Hpct term")
		}
		if len(extras) > 0 {
			return nil, fmt.Errorf("core: HashPivot does not support extra aggregate terms")
		}
		p.planHashPivot(plan, a, terms[0].call, terms[0].combos, groupNames, valueNames)
		return plan, nil
	}

	holder := p.emitHorizontalInserts(plan, a, a.table, groupNames, vals, extraVals,
		"compute FH directly from F in one scan", a.groupCols, a.whereSQL())
	p.finishHorizontalPlan(plan, a, groupNames, valueNames, extraNames, holder)
	return plan, nil
}

// planHpctFromFV generates the indirect strategy: run the full vertical
// percentage process into FV, then transpose FV by summing CASE terms.
func (p *Planner) planHpctFromFV(plan *Plan, a *analysis, call *expr.AggCall, combos []combo,
	groupNames, valueNames []string, extras []int, extraNames []string, opts HpctOptions) (*Plan, error) {

	pctAlias := p.temp("pv")
	// Embedded vertical query: group by D1..Dj plus the BY columns, with
	// the BY columns as the Vpct subgrouping.
	var sb strings.Builder
	sb.WriteString("SELECT ")
	var sel []string
	fineGroup := append(append([]string{}, a.groupCols...), call.By...)
	for _, g := range fineGroup {
		sel = append(sel, quoteIdent(g))
	}
	if len(a.groupCols) == 0 {
		// j = 0: totals over all rows, expressed by omitting the BY clause.
		sel = append(sel, fmt.Sprintf("vpct(%s) AS %s", call.Arg.String(), pctAlias))
	} else {
		sel = append(sel, fmt.Sprintf("vpct(%s BY %s) AS %s", call.Arg.String(), joinIdents(call.By), pctAlias))
	}
	// Extra aggregates ride along as distributive partials at the fine
	// level and are re-aggregated during transposition.
	type partial struct {
		cols  []string // partial column aliases in FV
		reagg string   // SELECT expression over FV
		typ   storage.ColumnType
	}
	var partials []partial
	for _, idx := range extras {
		x := a.items[idx].agg
		if x.Distinct {
			return nil, fmt.Errorf("core: count(DISTINCT …) terms are not distributive; use the direct (from F) strategy")
		}
		switch x.Fn {
		case expr.AggSum:
			c := p.temp("xp")
			sel = append(sel, fmt.Sprintf("sum(%s) AS %s", x.Arg.String(), c))
			partials = append(partials, partial{cols: []string{c}, reagg: "sum(" + quoteIdent(c) + ")", typ: aggResultType(x, a.schema)})
		case expr.AggCount:
			c := p.temp("xp")
			arg := "*"
			if x.Arg != nil {
				arg = x.Arg.String()
			}
			sel = append(sel, fmt.Sprintf("count(%s) AS %s", arg, c))
			partials = append(partials, partial{cols: []string{c}, reagg: "sum(" + quoteIdent(c) + ")", typ: storage.TypeInt})
		case expr.AggMin, expr.AggMax:
			c := p.temp("xp")
			sel = append(sel, fmt.Sprintf("%s(%s) AS %s", x.Fn, x.Arg.String(), c))
			partials = append(partials, partial{cols: []string{c}, reagg: string(x.Fn) + "(" + quoteIdent(c) + ")", typ: aggResultType(x, a.schema)})
		case expr.AggAvg:
			s, c := p.temp("xp"), p.temp("xp")
			sel = append(sel, fmt.Sprintf("sum(%s) AS %s", x.Arg.String(), s),
				fmt.Sprintf("count(%s) AS %s", x.Arg.String(), c))
			partials = append(partials, partial{cols: []string{s, c},
				reagg: fmt.Sprintf("sum(%s) / sum(%s)", quoteIdent(s), quoteIdent(c)), typ: storage.TypeFloat})
		default:
			return nil, fmt.Errorf("core: unsupported extra aggregate %s with the from-FV strategy", x.Fn)
		}
	}
	sb.WriteString(strings.Join(sel, ", "))
	sb.WriteString(" FROM ")
	sb.WriteString(a.table)
	sb.WriteString(a.whereSQL())
	sb.WriteString(" GROUP BY ")
	sb.WriteString(joinIdents(fineGroup))

	vopts := opts.Vpct
	vopts.UseUpdate = false // the transpose step reads FV columns by name
	vopts.MissingRows = MissingNone
	sub, err := p.PlanSQL(sb.String(), Options{Vpct: vopts})
	if err != nil {
		return nil, fmt.Errorf("core: embedded vertical plan: %w", err)
	}
	plan.Steps = append(plan.Steps, sub.Steps...)
	plan.Cleanup = append(plan.Cleanup, sub.Cleanup...)
	fv := sub.ResultTable

	// Transpose FV: one CASE term per combination picks that row's
	// percentage; missing combinations contribute 0%.
	var vals []hvalue
	for i, c := range combos {
		cond := comboCond("", call.By, c.vals)
		vals = append(vals, hvalue{
			name: valueNames[i],
			typ:  storage.TypeFloat,
			sel:  fmt.Sprintf("sum(CASE WHEN %s THEN %s ELSE 0 END)", cond, quoteIdent(pctAlias)),
		})
	}
	var extraVals []hvalue
	for n := range extras {
		extraVals = append(extraVals, hvalue{name: extraNames[n], typ: partials[n].typ, sel: partials[n].reagg})
	}
	holder := p.emitHorizontalInserts(plan, a, fv, groupNames, vals, extraVals,
		"transpose FV into FH", a.groupCols, "")
	p.finishHorizontalPlan(plan, a, groupNames, valueNames, extraNames, holder)
	return plan, nil
}

// emitHorizontalInserts creates the FH table(s) and their INSERT … SELECT
// statements, vertically partitioning when the column count would exceed
// MaxColumns. Every partition repeats the grouping columns as its key;
// extras land in the first partition. It returns which table holds each
// value/extra column, for partition reassembly.
func (p *Planner) emitHorizontalInserts(plan *Plan, a *analysis, fromTable string,
	groupNames []string, vals []hvalue, extraVals []hvalue, purpose string,
	groupCols []string, whereSQL string) map[string]string {

	keyWidth := len(groupNames)
	budget := p.MaxColumns - keyWidth
	if p.MaxColumns <= 0 {
		budget = len(vals) + len(extraVals)
	}
	var chunks [][]hvalue
	first := append(append([]hvalue{}, extraVals...), vals...)
	if len(first) <= budget {
		chunks = [][]hvalue{first}
	} else {
		// Extras plus as many value columns as fit, then remaining values.
		chunk := append([]hvalue{}, extraVals...)
		for _, v := range vals {
			if len(chunk) == budget {
				chunks = append(chunks, chunk)
				chunk = nil
			}
			chunk = append(chunk, v)
		}
		if len(chunk) > 0 {
			chunks = append(chunks, chunk)
		}
	}

	holder := make(map[string]string)
	for ci, chunk := range chunks {
		fh := p.temp("fh")
		plan.Cleanup = append(plan.Cleanup, Step{Purpose: "drop FH", SQL: "DROP TABLE IF EXISTS " + fh})
		plan.ResultTables = append(plan.ResultTables, fh)
		for _, v := range chunk {
			holder[v.name] = fh
		}
		var defs, sels []string
		for gi, g := range groupCols {
			defs = append(defs, colDef(groupNames[gi], a.schema[a.schema.ColumnIndex(g)].Type))
			sels = append(sels, quoteIdent(g))
		}
		for _, v := range chunk {
			defs = append(defs, colDef(v.name, v.typ))
			sels = append(sels, v.sel)
		}
		pkey := ""
		if len(groupCols) > 0 {
			pkey = ", PRIMARY KEY(" + joinIdents(groupNames) + ")"
		}
		label := purpose
		if len(chunks) > 1 {
			label = fmt.Sprintf("%s (partition %d/%d)", purpose, ci+1, len(chunks))
		}
		plan.Steps = append(plan.Steps,
			Step{Purpose: "create FH", SQL: fmt.Sprintf("CREATE TABLE %s (%s%s)", fh, strings.Join(defs, ", "), pkey)},
			Step{Purpose: label, SQL: fmt.Sprintf("INSERT INTO %s SELECT %s FROM %s%s%s",
				fh, strings.Join(sels, ", "), fromTable, whereSQL, groupByClause(groupCols))},
		)
	}
	plan.ResultTable = plan.ResultTables[0]
	plan.N = len(vals)
	return holder
}

// finishHorizontalPlan builds the final projection, reassembling partitions
// by joining them on the grouping columns. holder maps each value/extra
// column to the partition table that stores it.
func (p *Planner) finishHorizontalPlan(plan *Plan, a *analysis, groupNames, valueNames, extraNames []string, holder map[string]string) {
	order := ""
	if len(a.orderBy) > 0 {
		parts := make([]string, len(a.orderBy))
		for i, k := range a.orderBy {
			parts[i] = k.String()
		}
		order = " ORDER BY " + strings.Join(parts, ", ")
	} else if len(groupNames) > 0 {
		order = " ORDER BY " + joinIdents(groupNames)
	}

	if len(plan.ResultTables) == 1 {
		cols := make([]string, 0, len(groupNames)+len(valueNames)+len(extraNames))
		for _, g := range groupNames {
			cols = append(cols, quoteIdent(g))
		}
		for _, v := range valueNames {
			cols = append(cols, quoteIdent(v))
		}
		for _, x := range extraNames {
			cols = append(cols, quoteIdent(x))
		}
		plan.FinalSelect = fmt.Sprintf("SELECT %s FROM %s%s%s",
			strings.Join(cols, ", "), plan.ResultTable, order, limitClause(a))
		return
	}

	// Reassemble partitions: join every partition on the key columns.
	t0 := plan.ResultTables[0]
	var cols []string
	for _, g := range groupNames {
		cols = append(cols, t0+"."+quoteIdent(g))
	}
	for _, vn := range valueNames {
		cols = append(cols, holder[vn]+"."+quoteIdent(vn))
	}
	for _, xn := range extraNames {
		cols = append(cols, holder[xn]+"."+quoteIdent(xn))
	}
	from := t0
	var conds []string
	for _, tn := range plan.ResultTables[1:] {
		from += ", " + tn
		if len(groupNames) > 0 {
			conds = append(conds, equalityChainNullSafe(t0, tn, groupNames))
		}
	}
	where := ""
	if len(conds) > 0 {
		where = " WHERE " + strings.Join(conds, " AND ")
	}
	plan.FinalSelect = fmt.Sprintf("SELECT %s FROM %s%s%s%s",
		strings.Join(cols, ", "), from, where, order, limitClause(a))
}
