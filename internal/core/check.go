package core

import (
	"context"

	"repro/internal/diag"
	"repro/internal/expr"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// AggTerm is one aggregate select item of a checked query, in the form the
// linter's data-aware checks consume.
type AggTerm struct {
	// Call is the parsed aggregate call (function, argument, BY list).
	Call *expr.AggCall
	// Alias is the user-supplied AS name, if any.
	Alias string
	// Pct reports a Vpct/Hpct call; Horizontal reports a transposing call
	// (Hpct or a BY-carrying standard aggregate).
	Pct, Horizontal bool
	// Span locates the call in the statement source.
	Span diag.Span
}

// QueryShape is the analyzed skeleton of a percentage query, exported for
// internal/lint. It is only populated when Check finds no structural
// errors; data-aware checks need the table, grouping and aggregate layout
// to phrase their feedback queries.
type QueryShape struct {
	Class QueryClass
	// Table is F, the single source table.
	Table string
	// GroupCols are the resolved GROUP BY column names in declared order.
	GroupCols []string
	// WhereSQL is the user WHERE clause rendered as a " WHERE …" suffix
	// (empty when absent), ready to append to a feedback query.
	WhereSQL string
	// HasOrderBy reports whether the query fixes its row order.
	HasOrderBy bool
	// Aggs lists the aggregate select items in select-list order.
	Aggs []AggTerm
	// Schema is the schema of F.
	Schema storage.Schema
}

// Check validates a SELECT against the paper's usage rules and returns
// every violation as a positioned diagnostic, sorted by source position.
// Unlike the planner's fail-fast path it does not stop at the first
// problem. The returned shape is nil when errors prevent analysis (wrong
// class mix, unknown table) and best-effort otherwise.
func (p *Planner) Check(sel *sqlparse.Select) (*QueryShape, []diag.Diagnostic) {
	a, l := p.analyzeDiags(sel)
	ds := l.All()
	diag.Sort(ds)
	if a == nil {
		return nil, ds
	}
	shape := &QueryShape{
		Class:      a.class,
		Table:      a.table,
		GroupCols:  a.groupCols,
		WhereSQL:   a.whereSQL(),
		HasOrderBy: len(a.orderBy) > 0,
		Schema:     a.schema,
	}
	for _, it := range a.items {
		if it.agg == nil {
			continue
		}
		shape.Aggs = append(shape.Aggs, AggTerm{
			Call:       it.agg,
			Alias:      it.alias,
			Pct:        it.kind == itemPct,
			Horizontal: it.horizontal(),
			Span:       it.aggSpan(),
		})
	}
	return shape, ds
}

// CountDistinct measures the number of distinct combinations of cols in
// table, under an optional " WHERE …" suffix — the paper's feedback query,
// exported for the linter's cardinality checks. Zero columns count as one
// combination (the global total).
func (p *Planner) CountDistinct(table string, cols []string, whereSQL string) (int, error) {
	if len(cols) == 0 {
		return 1, nil
	}
	combos, err := p.feedbackCombos(context.Background(), table, cols, whereSQL, p.Eng.Parallelism(), nil)
	if err != nil {
		return 0, err
	}
	return len(combos), nil
}
