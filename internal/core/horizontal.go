package core

import (
	"context"
	"fmt"

	"repro/internal/storage"
)

// planHorizontalPct generates the Hpct evaluation plan of Section 3.2. The
// two strategies of Table 5 are: computing FH directly from F with one scan
// of sum(CASE…)/sum(A) terms, or computing the vertical percentage table FV
// first and transposing it. Either way the plan starts with the feedback
// process the paper describes: reading the distinct BY combinations to
// define FH's columns.
func (p *Planner) planHorizontalPct(ctx context.Context, plan *Plan, a *analysis, opts HpctOptions) error {
	hl, err := p.horizontalLayout(ctx, plan, a)
	if err != nil {
		return err
	}
	if len(hl.terms) == 0 {
		return fmt.Errorf("core: horizontal plan without Hpct terms")
	}
	if err := hl.fit(p.MaxColumns); err != nil {
		return err
	}
	if opts.FromFV {
		if err := a.fromFVError(); err != nil {
			return err
		}
		return p.planHpctFromFV(ctx, plan, a, hl)
	}

	// Direct strategy: one scan of F.
	var vals, extraVals []hvalue
	for _, t := range hl.terms {
		for _, c := range t.combos {
			vals = append(vals, hvalue{name: hl.valueNames[len(vals)], typ: storage.TypeFloat,
				sel: hpctCell(t.call.Arg.String(), comboCond("", t.call.By, c.vals))})
		}
	}
	for n, idx := range hl.extras {
		call := a.items[idx].agg
		extraVals = append(extraVals, hvalue{name: hl.extraNames[n], typ: aggResultType(call, a.schema), sel: call.String()})
	}
	holder := p.emitHorizontalInserts(plan, a, hl, a.table, a.whereSQL(), "compute FH directly from F in one scan", vals, extraVals)
	p.finishHorizontalPlan(plan, a, hl, holder)
	return nil
}

// planHpctFromFV generates the indirect strategy: run the full vertical
// percentage process into FV, then transpose FV by summing CASE terms.
func (p *Planner) planHpctFromFV(ctx context.Context, plan *Plan, a *analysis, hl *hlayout) error {
	call, combos := hl.terms[0].call, hl.terms[0].combos
	pctAlias := p.temp("pv")
	// Embedded vertical query: group by D1..Dj plus the BY columns, with
	// the BY columns as the Vpct subgrouping.
	fineGroup := a.fineGroup()
	sel := quoteIdents(fineGroup)
	if len(a.groupCols) == 0 {
		// j = 0: totals over all rows, expressed by omitting the BY clause.
		sel = append(sel, fmt.Sprintf("vpct(%s) AS %s", call.Arg.String(), pctAlias))
	} else {
		sel = append(sel, fmt.Sprintf("vpct(%s BY %s) AS %s", call.Arg.String(), joinIdents(call.By), pctAlias))
	}
	// Extra aggregates ride along as partial aggregates at the fine level and
	// are re-aggregated during transposition.
	var extraVals []hvalue
	for n, idx := range hl.extras {
		x := a.items[idx].agg
		pa, _ := partialOf(x)
		cols := p.carry(a, x, pa, "xp", &sel, nil)
		extraVals = append(extraVals, hvalue{name: hl.extraNames[n], typ: aggResultType(x, a.schema), sel: pa.reagg(cols, nil)})
	}
	// The embedded plan's steps, temporaries and cached tables are this plan's.
	subSel, err := parseSelect(selectSQL(sel, a.table, a.whereSQL(), " GROUP BY "+joinIdents(fineGroup)))
	var sub *analysis
	if err == nil {
		sub, err = p.analyze(subSel)
	}
	if err == nil {
		err = p.planVertical(ctx, plan, sub, DefaultOptions().Vpct)
	}
	if err != nil {
		return fmt.Errorf("core: embedded vertical plan: %w", err)
	}
	fv := plan.ResultTable
	plan.ResultTables = nil // FH's, from here on

	// Transpose FV: one CASE term per combination picks that row's
	// percentage; missing combinations contribute 0%. A group whose total is
	// zero or NULL has only NULL percentages in FV and stays an all-NULL row,
	// as in every other strategy — the ELSE 0 arms alone would turn it into
	// zeros.
	pv := quoteIdent(pctAlias)
	var vals []hvalue
	for i, c := range combos {
		vals = append(vals, hvalue{name: hl.valueNames[i], typ: storage.TypeFloat,
			sel: fmt.Sprintf("CASE WHEN count(%s) > 0 THEN sum(CASE WHEN %s THEN %s ELSE 0 END) ELSE NULL END",
				pv, comboCond("", call.By, c.vals), pv)})
	}
	holder := p.emitHorizontalInserts(plan, a, hl, fv, "", "transpose FV into FH", vals, extraVals)
	p.finishHorizontalPlan(plan, a, hl, holder)
	return nil
}
