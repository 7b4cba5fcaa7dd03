package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/value"
)

// The CASE strategies evaluate N boolean conjunctions per input row even
// though the conjunctions are disjoint — one row falls in exactly one result
// column. The paper observes the optimizer could map a row to its column in
// O(1) with a hash table. HashPivot plans implement that proposal the way the
// paper derives Fj from Fk for Vpct: sum, count, min and max are distributive,
// so the fine aggregate Fk over D1..Dk — two ordinary SQL steps, run by the
// engine's fold operator under its governor — already holds every FH cell,
// and one native step walks Fk placing each row into its cell with one hash
// lookup on (Dj+1..Dk). They exist as an ablation of the CASE evaluation
// cost; results are identical to the SQL plans.

// planHashPivot finishes a direct Hpct or Hagg plan with the Fk steps and the
// native placement step.
func (p *Planner) planHashPivot(plan *Plan, a *analysis, hl *hlayout) {
	call, combos, groupNames, valueNames := hl.terms[0].call, hl.terms[0].combos, hl.groupNames, hl.valueNames
	pct := call.Fn == expr.AggHpct
	agg := call
	if pct {
		// Percentages divide each cell's sum by the row total at placement.
		agg = &expr.AggCall{Fn: expr.AggSum, Arg: call.Arg}
	}
	var deflt value.Value
	if call.Default != nil {
		deflt = call.Default.Val
	}
	fk, fh := p.temp("fk"), p.temp("fh")
	plan.Cleanup = append(plan.Cleanup,
		Step{Purpose: "drop Fk", SQL: "DROP TABLE IF EXISTS " + fk},
		Step{Purpose: "drop FH", SQL: "DROP TABLE IF EXISTS " + fh})
	plan.ResultTable, plan.ResultTables, plan.N = fh, []string{fh}, len(valueNames)

	nGroup := len(a.groupCols)
	fine := append(append([]string{}, a.groupCols...), call.By...)
	var fkDefs, fhDefs []string
	for i, c := range fine {
		typ := a.schema[a.schema.ColumnIndex(c)].Type
		fkDefs = append(fkDefs, colDef(c, typ))
		if i < nGroup {
			fhDefs = append(fhDefs, colDef(groupNames[i], typ))
		}
	}
	fkDefs = append(fkDefs, colDef("m1", aggResultType(agg, a.schema)))
	for _, v := range valueNames {
		fhDefs = append(fhDefs, colDef(v, aggResultType(call, a.schema)))
	}
	pkey := ""
	if nGroup > 0 {
		pkey = ", PRIMARY KEY(" + joinIdents(groupNames) + ")"
	}
	plan.Steps = append(plan.Steps,
		Step{Purpose: "create Fk", SQL: fmt.Sprintf("CREATE TABLE %s (%s)", fk, strings.Join(fkDefs, ", "))},
		Step{Purpose: "compute fine aggregate Fk from F",
			SQL: fmt.Sprintf("INSERT INTO %s SELECT %s, %s FROM %s%s GROUP BY %s",
				fk, joinIdents(fine), plainAggSQL(agg), a.table, a.whereSQL(), joinIdents(fine))},
		Step{Purpose: "create FH", SQL: fmt.Sprintf("CREATE TABLE %s (%s%s)", fh, strings.Join(fhDefs, ", "), pkey)},
		Step{Purpose: "hash-pivot Fk into FH (one O(1) column lookup per row)",
			native: func(ctx context.Context, eng *engine.Engine, _ int, span *obs.Span) error {
				return placePivot(ctx, eng, fk, fh, nGroup, combos, pct, deflt, span)
			}},
	)
	p.finishHorizontalPlan(plan, a, hl, nil)
}

// placePivot walks Fk — D1..Dk then the cell aggregate — once, hashing
// (D1..Dj) to an FH row in first-appearance order and (Dj+1..Dk) to one of
// its cells, then writes FH. In percentage mode each cell is divided by the
// sum of its row's cells with the dialect's own arithmetic: a zero or
// all-NULL total NULLs the row like the SQL plans do, and an absent
// combination is an explicit zero (sum(CASE … ELSE 0)). Otherwise an absent
// or NULL cell is NULL, or the call's DEFAULT.
func placePivot(ctx context.Context, eng *engine.Engine, fk, fh string, nGroup int, combos []combo,
	pct bool, deflt value.Value, span *obs.Span) error {

	src, err := eng.Catalog().Get(fk)
	if err != nil {
		return err
	}
	dst, err := eng.Catalog().Get(fh)
	if err != nil {
		return err
	}
	es := span.NewChild("emit " + fh)
	defer es.End()

	colOf := make(map[string]int, len(combos))
	for i, c := range combos {
		colOf[value.EncodeKeyString(c.vals...)] = i
	}
	measure := src.NumCols() - 1
	rowOf := make(map[string]int)
	var rows [][]value.Value
	var rec []value.Value
	for r := 0; r < src.NumRows(); r++ {
		if err := engine.CheckCtx(ctx); err != nil {
			return err
		}
		rec = src.Row(r, rec)
		key := value.EncodeKeyString(rec[:nGroup]...)
		ri, ok := rowOf[key]
		if !ok {
			if err := chaos.Hit(chaos.PivotAlloc); err != nil {
				return err
			}
			ri, rowOf[key] = len(rows), len(rows)
			row := make([]value.Value, nGroup+len(combos))
			copy(row, rec[:nGroup])
			rows = append(rows, row)
		}
		ci, ok := colOf[value.EncodeKeyString(rec[nGroup:measure]...)]
		if !ok {
			// A combination outside the feedback snapshot (possible only if
			// F changed between planning and execution).
			return fmt.Errorf("core: Fk row %d has a BY combination absent from the planned column layout", r)
		}
		rows[ri][nGroup+ci] = rec[measure]
	}

	for _, row := range rows {
		if err := engine.CheckCtx(ctx); err != nil {
			return err
		}
		cells := row[nGroup:]
		if pct {
			if err := percentages(cells); err != nil {
				return err
			}
		} else {
			for i, c := range cells {
				if c.IsNull() {
					cells[i] = deflt
				}
			}
		}
		if _, err := dst.AppendRow(row); err != nil {
			return err
		}
	}
	es.SetRows(int64(src.NumRows()), int64(len(rows)))
	return nil
}

// percentages divides each cell, in place, by the sum of the row's cells.
func percentages(cells []value.Value) (err error) {
	total := value.Null
	for i, c := range cells {
		switch {
		case c.IsNull():
			cells[i] = value.NewInt(0)
		case total.IsNull():
			total = c
		default:
			if total, err = value.Add(total, c); err != nil {
				return err
			}
		}
	}
	for i, c := range cells {
		if cells[i], err = value.Div(c, total); err != nil {
			return err
		}
	}
	return nil
}
