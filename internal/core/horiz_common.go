package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

// combo is one distinct combination of BY-column values, defining one
// result column of a horizontal aggregation.
type combo struct {
	vals  []value.Value
	label string
}

// feedbackCombos runs the feedback query the paper requires to lay out FH:
// SELECT DISTINCT Dj+1..Dk FROM F, ordered for deterministic column order. It
// is a statement generated for the query being planned, so it runs under that
// query's context.
func (p *Planner) feedbackCombos(ctx context.Context, table string, byCols []string, whereSQL string) ([]combo, error) {
	sql := fmt.Sprintf("SELECT DISTINCT %s FROM %s%s ORDER BY %s",
		joinIdents(byCols), table, whereSQL, joinIdents(byCols))
	res, err := p.Eng.ExecSQLCtx(engine.Generated(ctx), sql)
	if err != nil {
		return nil, fmt.Errorf("core: feedback query failed: %w", err)
	}
	out := make([]combo, 0, res.Len())
	// pctvet:ok O(1) copy per row of a result the feedback statement already governed
	for _, row := range res.Rows {
		out = append(out, combo{vals: row, label: comboLabel(byCols, row)})
	}
	return out, nil
}

// comboLabel names a result column after its combination of values: bare
// values for a single BY column ("Mon"), col=value pairs otherwise
// ("dweek=1,month=2"). NULLs render as the word NULL.
func comboLabel(byCols []string, vals []value.Value) string {
	if len(byCols) == 1 {
		return vals[0].String()
	}
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = byCols[i] + "=" + v.String()
	}
	return strings.Join(parts, ",")
}

// comboCond renders the boolean conjunction matching one combination:
// "Dh = vh AND … AND Dk = vk", with IS NULL for NULL values. qualifier, if
// nonempty, prefixes column references.
func comboCond(qualifier string, byCols []string, vals []value.Value) string {
	parts := make([]string, len(byCols))
	for i, c := range byCols {
		ref := quoteIdent(c)
		if qualifier != "" {
			ref = qualifier + "." + ref
		}
		if vals[i].IsNull() {
			parts[i] = ref + " IS NULL"
		} else {
			parts[i] = ref + " = " + literalSQL(vals[i])
		}
	}
	return strings.Join(parts, " AND ")
}

// whereSQL renders the analysis WHERE clause as a SQL suffix.
func (a *analysis) whereSQL() string { return whereSuffix(a.where) }

// andWhere combines a combo condition with the user WHERE clause into one
// WHERE clause.
func andWhere(cond string, a *analysis) string {
	if a.where == nil {
		return " WHERE " + cond
	}
	return " WHERE " + cond + " AND (" + a.where.String() + ")"
}

// groupByClause renders " GROUP BY cols" or "" for j = 0.
func groupByClause(cols []string) string {
	if len(cols) == 0 {
		return ""
	}
	return " GROUP BY " + joinIdents(cols)
}

// hterm is one horizontal term of a select list — Hpct(A BY …) or a
// standard aggregate with a BY list — with the BY combinations the feedback
// query found for it.
type hterm struct {
	itemIdx int
	call    *expr.AggCall
	combos  []combo
	names   []string // proposed column names, one per combination
	fine    []string // Hagg from FV: the FV columns carrying its partial aggregate
}

// hvalue is one value column of a horizontal result: its output name, type,
// and the SELECT expression that fills it.
type hvalue struct {
	name string
	typ  storage.ColumnType
	sel  string
}

// hlayout is the column layout of a horizontal result, shared by Hpct, Hagg
// and the horizontal lattice node: the terms with their combinations, the
// plain aggregates riding along, and the output names — grouping columns,
// then one value column per (term, combination), then the extras, uniquified
// together. It is the only place that names horizontal columns, checks them
// against MaxColumns and renders the Hpct cell.
type hlayout struct {
	terms                              []*hterm
	extras                             []int // item indexes of the plain vertical aggregates
	groupNames, valueNames, extraNames []string
}

// horizontalLayout gathers the horizontal terms of the select list, starting
// with the feedback process the paper describes — reading each term's
// distinct BY combinations to define the result columns — and names every
// column.
func (p *Planner) horizontalLayout(ctx context.Context, a *analysis) (*hlayout, error) {
	hl := &hlayout{}
	for idx, it := range a.items {
		switch {
		case it.kind == itemVertAgg:
			hl.extras = append(hl.extras, idx)
		case it.horizontal():
			combos, err := p.feedbackCombos(ctx, a.table, it.agg.By, a.whereSQL())
			if err != nil {
				return nil, err
			}
			if len(combos) == 0 {
				what := "Hpct"
				if it.kind == itemHoriz {
					what = "horizontal aggregation"
				}
				return nil, fmt.Errorf("core: %s over empty input: no BY combinations in %s", what, a.table)
			}
			hl.terms = append(hl.terms, &hterm{itemIdx: idx, call: it.agg, combos: combos})
		}
	}
	names := append([]string{}, a.groupCols...)
	for _, t := range hl.terms {
		prefix := ""
		if len(hl.terms) > 1 {
			prefix = t.prefix(a.items[t.itemIdx])
		}
		for _, c := range t.combos {
			t.names = append(t.names, prefix+c.label)
		}
		names = append(names, t.names...)
	}
	for _, idx := range hl.extras {
		names = append(names, a.items[idx].outName())
	}
	names = uniqueNames(names)
	nk, nx := len(a.groupCols), len(names)-len(hl.extras)
	hl.groupNames, hl.valueNames, hl.extraNames = names[:nk], names[nk:nx], names[nx:]
	return hl, nil
}

// horizontal reports a transposing term: Hpct, or a standard aggregate with
// a BY list.
func (it item) horizontal() bool {
	return it.kind == itemHoriz || it.kind == itemPct && it.agg.Fn == expr.AggHpct
}

// fineGroup is the grouping a summary needs before it can be pivoted —
// Fk's, and FV's in the from-FV strategies: D1..Dj plus the union of every
// horizontal term's BY columns.
func (a *analysis) fineGroup() []string {
	group := append([]string{}, a.groupCols...)
	for _, it := range a.items {
		if !it.horizontal() {
			continue
		}
		for _, b := range it.agg.By {
			if !containsFold(group, b) {
				group = append(group, b)
			}
		}
	}
	return group
}

// fromFVError reports why the from-FV strategies cannot evaluate the query,
// nil when they can. From FV everything is re-aggregated from one vertical
// summary at the fine grouping: every plain or horizontal aggregate needs a
// partial form (DISTINCT has none), the embedded vertical query carries one
// Hpct term, and a lattice derives its nodes from its own finest summary
// instead. The planners reject with this error and the advisor offers from FV
// only where it is nil, so advice is always a plan the planner accepts.
func (a *analysis) fromFVError() error {
	if a.hasSets {
		return fmt.Errorf("core: the from-FV strategy is not supported with GROUP BY %s; use the direct strategy", a.setsKind.Keyword())
	}
	hpct := 0
	for _, it := range a.items {
		switch it.kind {
		case itemPct:
			hpct++
		case itemVertAgg, itemHoriz:
			if _, ok := partialOf(it.agg); !ok {
				return fmt.Errorf("core: %s is not distributive; the from-FV strategy cannot evaluate it — use the direct strategy", it.agg)
			}
		}
	}
	if hpct > 1 {
		return fmt.Errorf("core: the from-FV strategy supports a single Hpct term; use the direct strategy for %d terms", hpct)
	}
	return nil
}

// prefix tells the columns of several horizontal terms apart: the term's
// alias, else its measure column (behind the aggregate's name for a
// horizontal aggregation), else its select-list position.
func (t *hterm) prefix(it item) string {
	tag := "pct"
	if it.kind == itemHoriz {
		tag = string(t.call.Fn)
	}
	cr, isCol := t.call.Arg.(*expr.ColumnRef)
	switch {
	case it.alias != "":
		return it.alias + ":"
	case isCol && it.kind == itemHoriz:
		return tag + "_" + cr.Name + ":"
	case isCol:
		return cr.Name + ":"
	default:
		return fmt.Sprintf("%s%d:", tag, t.itemIdx)
	}
}

// fit rejects a result wider than max columns whose partitions could not
// hold the grouping and extra columns plus even one value column; any other
// over-wide result is partitioned vertically by emitHorizontalInserts.
func (hl *hlayout) fit(max int) error {
	fixed := len(hl.groupNames) + len(hl.extraNames)
	if width := fixed + len(hl.valueNames); max > 0 && width > max && fixed+1 > max {
		return fmt.Errorf("core: result needs %d columns but MaxColumns is %d and partitions cannot fit the %d key/extra columns",
			width, max, fixed)
	}
	return nil
}

// hpctCell renders one Hpct cell over a grouped source: the share of
// measure m that falls under cond, an absent combination counting 0 and a
// zero or NULL total making the whole row NULL.
func hpctCell(m, cond string) string {
	return fmt.Sprintf("CASE WHEN sum(%s) <> 0 THEN sum(CASE WHEN %s THEN %s ELSE 0 END) / sum(%s) ELSE NULL END", m, cond, m, m)
}

// emitHorizontalInserts creates the FH table(s) and their INSERT … SELECT
// statements, vertically partitioning when the column count would exceed
// MaxColumns. Every partition repeats the grouping columns as its key;
// extras land in the first partition. It returns which table holds each
// value/extra column, for partition reassembly.
func (p *Planner) emitHorizontalInserts(plan *Plan, a *analysis, hl *hlayout, fromTable, whereSQL, purpose string,
	vals, extraVals []hvalue) map[string]string {

	budget := p.MaxColumns - len(hl.groupNames)
	if p.MaxColumns <= 0 {
		budget = len(vals) + len(extraVals)
	}
	// Extras plus as many value columns as fit, then the remaining values.
	chunks := [][]hvalue{append([]hvalue{}, extraVals...)}
	for _, v := range vals {
		if last := len(chunks) - 1; len(chunks[last]) < budget {
			chunks[last] = append(chunks[last], v)
		} else {
			chunks = append(chunks, []hvalue{v})
		}
	}

	holder := make(map[string]string)
	pkey := ""
	if len(a.groupCols) > 0 {
		pkey = ", PRIMARY KEY(" + joinIdents(hl.groupNames) + ")"
	}
	for ci, chunk := range chunks {
		fh := p.temp("fh")
		plan.Cleanup = append(plan.Cleanup, Step{Purpose: "drop FH", SQL: "DROP TABLE IF EXISTS " + fh})
		plan.ResultTables = append(plan.ResultTables, fh)
		defs, sels := a.colDefs(a.groupCols, hl.groupNames), quoteIdents(a.groupCols)
		for _, v := range chunk {
			holder[v.name] = fh
			defs = append(defs, colDef(v.name, v.typ))
			sels = append(sels, v.sel)
		}
		label := purpose
		if len(chunks) > 1 {
			label = fmt.Sprintf("%s (partition %d/%d)", purpose, ci+1, len(chunks))
		}
		plan.Steps = append(plan.Steps,
			Step{Purpose: "create FH", SQL: fmt.Sprintf("CREATE TABLE %s (%s%s)", fh, strings.Join(defs, ", "), pkey)},
			Step{Purpose: label, SQL: "INSERT INTO " + fh + " " + selectSQL(sels, fromTable, whereSQL, groupByClause(a.groupCols))},
		)
	}
	plan.ResultTable = plan.ResultTables[0]
	plan.N = len(vals)
	return holder
}

// finishHorizontalPlan builds the final projection, reassembling partitions
// by joining them on the grouping columns. holder maps each value/extra
// column to the partition table that stores it.
func (p *Planner) finishHorizontalPlan(plan *Plan, a *analysis, hl *hlayout, holder map[string]string) {
	t0 := plan.ResultTables[0]
	names := append(append(append([]string{}, hl.groupNames...), hl.valueNames...), hl.extraNames...)
	cols, from := quoteIdents(names), t0
	var conds []string
	if len(plan.ResultTables) > 1 {
		for i, n := range names {
			if i < len(hl.groupNames) {
				cols[i] = t0 + "." + cols[i]
			} else {
				cols[i] = holder[n] + "." + cols[i]
			}
		}
		for _, tn := range plan.ResultTables[1:] {
			from += ", " + tn
			if len(hl.groupNames) > 0 {
				conds = append(conds, equalityChainNullSafe(t0, tn, hl.groupNames))
			}
		}
	}
	plan.FinalSelect = selectSQL(cols, from, whereAll(conds), orderBySQL(a, hl.groupNames), limitClause(a))
}
