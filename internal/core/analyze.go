// Package core implements the paper's contribution: percentage queries.
//
// A percentage query is a SELECT statement using the Vpct() or Hpct()
// aggregate functions (or, via the companion paper's generalization, any
// standard aggregate with a BY subgrouping list). The Planner analyzes such
// a query, validates it against the paper's usage rules, and generates a
// multi-statement standard-SQL plan that the engine executes — exactly the
// role of the paper's Java SQL code generator. Every optimization the
// paper's evaluation studies is a strategy knob:
//
//   - Vpct: compute the coarse totals Fj from the fine aggregate Fk or from
//     F; produce FV by INSERT into a third table or by UPDATE of Fk in
//     place; create identical indexes on the common subkey of Fj and Fk.
//   - Hpct: compute FH directly from F in one scan of sum(CASE…)/sum(A)
//     terms, or from the vertical percentage table FV.
//   - Hagg: SPJ (N filtered aggregates assembled with left outer joins) or
//     CASE, each directly from F or from the vertical pre-aggregate FV.
//
// The planner also generates the ANSI OLAP window-function formulation the
// paper benchmarks against, and implements the two correctness treatments
// the paper identifies for vertical percentages: missing rows (pre- or
// post-processing) and division by zero (NULL results).
//
// Validation is a collecting static analysis: analyzeDiags walks the query
// once and records every independent violation of the paper's usage rules
// as a positioned diag.Diagnostic. The planner's analyze keeps the
// fail-fast contract (first error wins); internal/lint surfaces the full
// list plus its own warning/advisory checks.
package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/diag"
	"repro/internal/expr"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// QueryClass classifies a SELECT for planning purposes.
type QueryClass int

// Query classes.
const (
	// ClassStandard has no BY-carrying aggregates; the engine runs it
	// directly.
	ClassStandard QueryClass = iota
	// ClassVertical uses Vpct().
	ClassVertical
	// ClassHorizontalPct uses Hpct().
	ClassHorizontalPct
	// ClassHorizontalAgg uses a standard aggregate with a BY list (the
	// companion paper's horizontal aggregations).
	ClassHorizontalAgg
)

// String names the class.
func (c QueryClass) String() string {
	switch c {
	case ClassStandard:
		return "standard"
	case ClassVertical:
		return "vertical-percentage"
	case ClassHorizontalPct:
		return "horizontal-percentage"
	case ClassHorizontalAgg:
		return "horizontal-aggregation"
	default:
		return fmt.Sprintf("QueryClass(%d)", int(c))
	}
}

// itemKind tags analyzed select items.
type itemKind int

const (
	itemGroupCol itemKind = iota // a bare grouping column
	itemVertAgg                  // a standard aggregate without BY
	itemPct                      // Vpct or Hpct
	itemHoriz                    // standard aggregate with BY (Hagg)
	itemGrouping                 // GROUPING(d1, …): the lattice-node marker
)

// item is one analyzed select-list term.
type item struct {
	kind  itemKind
	alias string        // user alias, may be empty
	col   string        // itemGroupCol: column name
	agg   *expr.AggCall // aggregate items
	gcols []string      // itemGrouping: the marker's dimension arguments
	span  diag.Span     // source span of the select item
}

// analysis is the normalized form of a percentage/horizontal query.
type analysis struct {
	class     QueryClass
	table     string // F
	where     expr.Expr
	groupCols []string // GROUP BY column names, in declared order
	items     []item   // in select-list order
	orderBy   []sqlparse.OrderKey
	limit     *int
	schema    storage.Schema // schema of F

	// Grouping-set lattice, when the query uses ROLLUP/CUBE/GROUPING SETS.
	// groupCols then holds the finest dimension list (the union of all
	// sets, first-appearance order) and sets the resolved lattice nodes,
	// each a subset of groupCols in groupCols order, finest first.
	hasSets  bool
	setsKind sqlparse.GroupingKind
	sets     [][]string
}

// classCounts tallies the BY-carrying aggregate kinds in a select list and
// remembers a representative span for each.
type classCounts struct {
	vpct, hpct, hagg bool
	vpctSpan         diag.Span
	hpctSpan         diag.Span
	haggSpan         diag.Span
}

func countClasses(sel *sqlparse.Select) classCounts {
	var c classCounts
	for _, it := range sel.Items {
		if it.Star {
			continue
		}
		_ = expr.Walk(it.Expr, func(n expr.Expr) error {
			a, ok := n.(*expr.AggCall)
			if !ok {
				return nil
			}
			span := a.Span
			if span.IsZero() {
				span = it.Span
			}
			switch {
			case a.Fn == expr.AggVpct:
				if !c.vpct {
					c.vpctSpan = span
				}
				c.vpct = true
			case a.Fn == expr.AggHpct:
				if !c.hpct {
					c.hpctSpan = span
				}
				c.hpct = true
			case a.IsHorizontal():
				if !c.hagg {
					c.haggSpan = span
				}
				c.hagg = true
			}
			return nil
		})
	}
	return c
}

// Classify inspects a parsed SELECT and reports its query class. It errors
// on the combinations the paper rules out (e.g. mixing vertical and
// horizontal percentage aggregations in one statement) with the coded error
// of classifyDiags' first diagnostic.
func Classify(sel *sqlparse.Select) (QueryClass, error) {
	var l diag.List
	class := classifyDiags(sel, &l)
	if d := l.FirstError(); d != nil {
		return ClassStandard, diagError(d)
	}
	return class, nil
}

// classifyDiags is Classify's rule in collecting form: mixing violations become
// diagnostics and the dominant class is still reported so later checks can
// proceed where they make sense.
func classifyDiags(sel *sqlparse.Select, l *diag.List) QueryClass {
	c := countClasses(sel)
	if c.vpct && (c.hpct || c.hagg) {
		span := c.hpctSpan
		if !c.hpct {
			span = c.haggSpan
		}
		l.Addf(diag.CodeMixedClasses, diag.Error, span,
			"combining vertical and horizontal percentage aggregations in one query is not supported (listed as future work in the paper)")
	} else if c.hpct && c.hagg {
		l.Addf(diag.CodeHpctWithHagg, diag.Error, c.haggSpan,
			"combining Hpct with other horizontal aggregations in one query is not supported")
	}
	switch {
	case c.vpct:
		return ClassVertical
	case c.hpct:
		return ClassHorizontalPct
	case c.hagg:
		return ClassHorizontalAgg
	default:
		return ClassStandard
	}
}

// analyze validates the query against the paper's usage rules and produces
// the normalized analysis the generators consume. It keeps the historical
// fail-fast contract: the first error-severity diagnostic becomes the
// returned error.
func (p *Planner) analyze(sel *sqlparse.Select) (*analysis, error) {
	a, l := p.analyzeDiags(sel)
	if d := l.FirstError(); d != nil {
		return nil, diagError(d)
	}
	return a, nil
}

// codedError is a planner error that carries the stable PCTxxx code of the
// violated rule (see internal/diag), so callers can aggregate rejections by
// diagnostic class without string matching.
type codedError struct {
	// PCTCode is the diagnostic code, e.g. "PCT017".
	PCTCode string
	// Msg is the human-readable message, including the package prefix.
	Msg string
}

// Error returns the message.
func (e *codedError) Error() string { return e.Msg }

// Code returns the PCTxxx diagnostic code.
func (e *codedError) Code() string { return e.PCTCode }

// diagError converts a diagnostic back into the planner's error form.
// Catalog-lookup messages already carry their package prefix; rule
// violations get the historical "core:" prefix.
func diagError(d *diag.Diagnostic) error {
	if d.Code == diag.CodeUnknownTable {
		return &codedError{PCTCode: d.Code, Msg: d.Message}
	}
	return &codedError{PCTCode: d.Code, Msg: "core: " + d.Message}
}

// analyzeDiags validates the query, collecting every independent violation
// instead of failing on the first. The returned analysis is complete when
// the list has no errors; with errors it is best-effort (and nil when a
// structural problem — wrong class mix, no usable table — prevents
// analysis).
func (p *Planner) analyzeDiags(sel *sqlparse.Select) (*analysis, *diag.List) {
	l := &diag.List{}
	class := classifyDiags(sel, l)
	if l.HasErrors() {
		return nil, l
	}
	if class == ClassStandard && sel.GroupSets == nil {
		// GROUPING() only means something over a grouping-set lattice.
		for _, sit := range sel.Items {
			if sit.Star {
				continue
			}
			found := false
			_ = expr.Walk(sit.Expr, func(n expr.Expr) error {
				if fc, ok := n.(*expr.FuncCall); ok && strings.EqualFold(fc.Name, "GROUPING") {
					found = true
				}
				return nil
			})
			if found {
				l.Addf(diag.CodeGroupingMisuse, diag.Error, sit.Span,
					"GROUPING() requires GROUP BY ROLLUP, CUBE, or GROUPING SETS")
			}
		}
		return &analysis{class: ClassStandard}, l
	}

	// The structural constraints below apply to everything the planner
	// rewrites: percentage queries and grouping-set (lattice) queries.
	construct := "percentage aggregations"
	if class == ClassStandard && sel.GroupSets != nil {
		construct = sel.GroupSets.Kind.Keyword()
	}
	if len(sel.From) != 1 || sel.From[0].Join != sqlparse.JoinCross {
		span := diag.Span{}
		if len(sel.From) > 1 {
			span = sel.From[1].Table.Span
		} else if len(sel.From) == 1 {
			span = sel.From[0].Table.Span
		}
		what := "percentage"
		if class == ClassStandard {
			what = "grouping-set"
		}
		l.Addf(diag.CodeMultiTable, diag.Error, span,
			"%s queries read from a single table or view F; pre-join into a temporary table first", what)
	}
	if sel.Having != nil {
		l.Addf(diag.CodeHaving, diag.Error, sel.HavingSpan,
			"HAVING is not supported with %s", construct)
	}
	if sel.Distinct {
		l.Addf(diag.CodeDistinct, diag.Error, sel.DistinctSpan,
			"DISTINCT is not supported with %s", construct)
	}
	if len(sel.From) == 0 {
		return nil, l
	}
	tableName := sel.From[0].Table.Name
	schema, err := p.Eng.ResolveSchema(tableName)
	if err != nil {
		l.Add(diag.Diagnostic{Code: diag.CodeUnknownTable, Severity: diag.Error,
			Span: sel.From[0].Table.Span, Message: err.Error()})
		return nil, l
	}

	a := &analysis{
		class:   class,
		table:   tableName,
		where:   sel.Where,
		orderBy: sel.OrderBy,
		limit:   sel.Limit,
		schema:  schema,
	}

	// Resolve GROUP BY keys to column names (positions point at bare
	// column items). A bad key is skipped so the remaining keys still
	// resolve and later checks stay meaningful.
	if sel.GroupSets != nil {
		resolveGroupingSets(sel, a, l)
	}
	for _, g := range sel.GroupBy {
		name, ok := resolveGroupKey(sel, a, g, l)
		if !ok {
			continue
		}
		if containsFold(a.groupCols, name) {
			l.Addf(diag.CodeGroupByDuplicate, diag.Error, g.Span,
				"duplicate GROUP BY column %q", name)
			continue
		}
		a.groupCols = append(a.groupCols, name)
	}

	for _, sit := range sel.Items {
		if sit.Star {
			l.Addf(diag.CodeSelectStar, diag.Error, sit.Span,
				"SELECT * cannot be combined with %s", construct)
			continue
		}
		if fc, ok := sit.Expr.(*expr.FuncCall); ok && strings.EqualFold(fc.Name, "GROUPING") {
			it := item{kind: itemGrouping, alias: sit.Alias, span: sit.Span}
			if !a.hasSets {
				l.Addf(diag.CodeGroupingMisuse, diag.Error, sit.Span,
					"GROUPING() requires GROUP BY ROLLUP, CUBE, or GROUPING SETS")
			}
			if len(fc.Args) == 0 {
				l.Addf(diag.CodeGroupingMisuse, diag.Error, sit.Span,
					"GROUPING() needs at least one dimension argument")
			}
			for _, arg := range fc.Args {
				ref, ok := arg.(*expr.ColumnRef)
				if !ok {
					l.Addf(diag.CodeGroupingMisuse, diag.Error, sit.Span,
						"GROUPING() arguments must be dimension columns, not %s", arg)
					continue
				}
				if a.hasSets && !containsFold(a.groupCols, ref.Name) {
					span := ref.Span
					if span.IsZero() {
						span = sit.Span
					}
					l.Addf(diag.CodeGroupingMisuse, diag.Error, span,
						"GROUPING() argument %q is not a lattice dimension", ref.Name)
					continue
				}
				it.gcols = append(it.gcols, ref.Name)
			}
			a.items = append(a.items, it)
			continue
		}
		switch e := sit.Expr.(type) {
		case *expr.ColumnRef:
			if !containsFold(a.groupCols, e.Name) {
				span := e.Span
				if span.IsZero() {
					span = sit.Span
				}
				l.Addf(diag.CodeNotGrouped, diag.Error, span,
					"column %s must appear in GROUP BY", e)
			}
			a.items = append(a.items, item{kind: itemGroupCol, alias: sit.Alias, col: e.Name, span: sit.Span})
		case *expr.AggCall:
			if e.Over != nil {
				l.Addf(diag.CodeWindowMix, diag.Error, sit.Span,
					"window aggregates cannot be combined with percentage aggregations")
				continue
			}
			it := item{alias: sit.Alias, agg: e, span: sit.Span}
			switch {
			case e.Fn == expr.AggVpct || e.Fn == expr.AggHpct:
				it.kind = itemPct
			case e.IsHorizontal():
				it.kind = itemHoriz
			default:
				it.kind = itemVertAgg
			}
			a.items = append(a.items, it)
		default:
			if expr.HasAggregate(sit.Expr) {
				l.Addf(diag.CodeNestedAgg, diag.Error, sit.Span,
					"percentage aggregations must be top-level select items, not nested in %s", sit.Expr)
			} else {
				l.Addf(diag.CodeBadSelectItem, diag.Error, sit.Span,
					"select item %s must be a grouping column or an aggregate", sit.Expr)
			}
		}
	}

	a.validateRules(l)
	return a, l
}

// resolveGroupKey resolves one GROUP BY key (name or position) against the
// select list and schema, reporting resolution failures.
func resolveGroupKey(sel *sqlparse.Select, a *analysis, g sqlparse.GroupKey, l *diag.List) (string, bool) {
	name := g.Column
	if g.Position > 0 {
		if g.Position > len(sel.Items) {
			l.Addf(diag.CodeGroupByPosition, diag.Error, g.Span,
				"GROUP BY position %d out of range", g.Position)
			return "", false
		}
		ref, ok := sel.Items[g.Position-1].Expr.(*expr.ColumnRef)
		if !ok {
			l.Addf(diag.CodeGroupByPosition, diag.Error, g.Span,
				"GROUP BY position %d must reference a column item", g.Position)
			return "", false
		}
		name = ref.Name
	}
	if a.schema.ColumnIndex(name) < 0 {
		l.Addf(diag.CodeGroupByUnknown, diag.Error, g.Span,
			"GROUP BY column %q is not a column of %s", name, a.table)
		return "", false
	}
	return name, true
}

// resolveGroupingSets resolves a ROLLUP/CUBE/GROUPING SETS construct into
// the finest dimension list (a.groupCols) and the lattice's grouping sets
// (a.sets), finest node first. Duplicate explicit sets are deduplicated
// with a PCT112 warning: each distinct set is evaluated once.
func resolveGroupingSets(sel *sqlparse.Select, a *analysis, l *diag.List) {
	spec := sel.GroupSets
	a.hasSets = true
	a.setsKind = spec.Kind

	switch spec.Kind {
	case sqlparse.GroupRollup, sqlparse.GroupCube:
		if len(spec.Dims) == 0 {
			l.Addf(diag.CodeEmptyGroupingSets, diag.Error, spec.Span,
				"%s() needs at least one dimension", spec.Kind.Keyword())
			return
		}
		var dims []string
		for _, g := range spec.Dims {
			name, ok := resolveGroupKey(sel, a, g, l)
			if !ok {
				continue
			}
			if containsFold(dims, name) {
				l.Addf(diag.CodeGroupByDuplicate, diag.Error, g.Span,
					"duplicate %s dimension %q", spec.Kind.Keyword(), name)
				continue
			}
			dims = append(dims, name)
		}
		a.groupCols = dims
		a.sets = latticeSets(spec.Kind, dims, nil, nil)
	case sqlparse.GroupSetsList:
		if len(spec.Sets) == 0 {
			l.Addf(diag.CodeEmptyGroupingSets, diag.Error, spec.Span,
				"GROUPING SETS needs at least one set")
			return
		}
		lists := make([][]string, len(spec.Sets))
		for i, rawSet := range spec.Sets {
			set := []string{}
			for _, g := range rawSet {
				name, ok := resolveGroupKey(sel, a, g, l)
				if !ok {
					continue
				}
				if containsFold(set, name) {
					l.Addf(diag.CodeGroupByDuplicate, diag.Error, g.Span,
						"duplicate column %q in grouping set", name)
					continue
				}
				set = append(set, name)
				if !containsFold(a.groupCols, name) {
					a.groupCols = append(a.groupCols, name)
				}
			}
			lists[i] = set
		}
		a.sets = latticeSets(spec.Kind, nil, lists, func(i int) {
			span := spec.Span
			if len(spec.Sets[i]) > 0 {
				span = spec.Sets[i][0].Span
			}
			l.Addf(diag.CodeDuplicateGroupingSet, diag.Warning, span,
				"duplicate grouping set (%s); each distinct set is evaluated once",
				strings.Join(lists[i], ", "))
		})
		// Canonicalize each set to finest-dimension order so generated
		// plans and output layout do not depend on within-set spelling.
		for i, s := range a.sets {
			a.sets[i] = orderedSubset(a.groupCols, s)
		}
	}
}

// latticeSets expands a ROLLUP or a CUBE over the resolved dims, or takes the
// resolved sets of a GROUPING SETS list, into the lattice's grouping sets,
// finest node first: a ROLLUP's k+1 prefixes down to the grand total; a
// CUBE's 2^k subsets, each in dimension order; a list's sets in their order,
// a repeat of an earlier set (ignoring order and case) dropped, and its index
// told to dup. A CUBE stops one set past maxLatticeNodes, which is enough for
// a caller to refuse it, rather than spell out 2^k sets.
func latticeSets(kind sqlparse.GroupingKind, dims []string, lists [][]string, dup func(i int)) [][]string {
	var sets [][]string
	switch kind {
	case sqlparse.GroupRollup:
		for j := len(dims); j >= 0; j-- {
			sets = append(sets, append([]string{}, dims[:j]...))
		}
	case sqlparse.GroupCube:
		// Subset n leaves out the dimensions whose bit is set in n, the last
		// dimension in bit 0, so n = 0 is the finest.
		k := len(dims)
		for n := uint64(0); len(sets) <= maxLatticeNodes && (k >= 64 || n < 1<<k); n++ {
			set := []string{}
			for i, d := range dims {
				if n&(1<<(k-1-i)) == 0 {
					set = append(set, d)
				}
			}
			sets = append(sets, set)
		}
	case sqlparse.GroupSetsList:
		for i, set := range lists {
			if slices.ContainsFunc(sets, func(prev []string) bool { return sameColumnSet(prev, set) }) {
				dup(i)
				continue
			}
			sets = append(sets, set)
		}
	}
	return sets
}

// sameColumnSet reports whether two grouping sets name the same columns,
// ignoring order and case — (a, b) and (b, a) are the same lattice node.
func sameColumnSet(a, b []string) bool {
	return len(a) == len(b) && containsAllFold(b, a)
}

// containsAllFold reports whether list names every column of sub.
func containsAllFold(list, sub []string) bool {
	for _, x := range sub {
		if !containsFold(list, x) {
			return false
		}
	}
	return true
}

// orderedSubset returns the members of sub reordered to ordering's order.
func orderedSubset(ordering, sub []string) []string {
	out := []string{}
	for _, c := range ordering {
		if containsFold(sub, c) {
			out = append(out, c)
		}
	}
	return out
}

// aggSpan returns the best span for an aggregate item: the call's own span
// when the parser recorded one, else the whole select item.
func (it item) aggSpan() diag.Span {
	if it.agg != nil && !it.agg.Span.IsZero() {
		return it.agg.Span
	}
	return it.span
}

// bySpan returns the span of the i'th BY column of the item's call, falling
// back to the call span.
func (it item) bySpan(i int) diag.Span {
	if it.agg != nil && i < len(it.agg.BySpans) {
		return it.agg.BySpans[i]
	}
	return it.aggSpan()
}

// validateRules enforces the per-function usage rules from Sections 3.1,
// 3.2 and the companion paper's Section 3.1, collecting every violation.
func (a *analysis) validateRules(l *diag.List) {
	switch a.class {
	case ClassVertical:
		for _, it := range a.items {
			if it.kind != itemPct {
				continue
			}
			call := it.agg
			// Rule V1: GROUP BY is required (two-level aggregation).
			if len(a.groupCols) == 0 {
				l.Addf(diag.CodeVpctNoGroupBy, diag.Error, it.aggSpan(),
					"Vpct requires a GROUP BY clause")
			}
			if call.Arg == nil {
				l.Addf(diag.CodeVpctNoArg, diag.Error, it.aggSpan(),
					"Vpct requires an expression argument")
			}
			// Rule V2: BY columns must be a proper subset of GROUP BY
			// ("the BY clause can have as many as k-1 columns"). An absent
			// BY list means totals over all rows (j = 0).
			if len(a.groupCols) > 0 && len(call.By) > 0 && len(call.By) >= len(a.groupCols) {
				l.Addf(diag.CodeVpctBySubset, diag.Error, it.aggSpan(),
					"Vpct BY list must be a proper subset of the GROUP BY columns (at most %d of %d)",
					len(a.groupCols)-1, len(a.groupCols))
			}
			for i, b := range call.By {
				if !containsFold(a.groupCols, b) {
					l.Addf(diag.CodeVpctByUnknown, diag.Error, it.bySpan(i),
						"Vpct BY column %q must be one of the GROUP BY columns", b)
				}
			}
			if call.Arg != nil {
				checkMeasure(call.Arg, a.schema, it.aggSpan(), l)
			}
		}
	case ClassHorizontalPct, ClassHorizontalAgg:
		for _, it := range a.items {
			if it.kind != itemPct && it.kind != itemHoriz {
				continue
			}
			call := it.agg
			// Rule H2: BY is required and disjoint from GROUP BY.
			if len(call.By) == 0 {
				l.Addf(diag.CodeByRequired, diag.Error, it.aggSpan(),
					"%s requires a BY subgrouping list", call.Fn)
			}
			for i, b := range call.By {
				if containsFold(a.groupCols, b) {
					l.Addf(diag.CodeByNotDisjoint, diag.Error, it.bySpan(i),
						"%s BY column %q must be disjoint from the GROUP BY columns", call.Fn, b)
				}
				if a.schema.ColumnIndex(b) < 0 {
					l.Addf(diag.CodeByUnknown, diag.Error, it.bySpan(i),
						"%s BY column %q is not a column of %s", call.Fn, b, a.table)
				}
			}
			seen := map[string]bool{}
			for i, b := range call.By {
				lo := strings.ToLower(b)
				if seen[lo] {
					l.Addf(diag.CodeByDuplicate, diag.Error, it.bySpan(i),
						"duplicate BY column %q", b)
					continue
				}
				seen[lo] = true
			}
			if call.Arg == nil && !call.Star {
				l.Addf(diag.CodeAggNoArg, diag.Error, it.aggSpan(),
					"%s requires an argument", call.Fn)
			}
			if call.Arg != nil {
				checkMeasure(call.Arg, a.schema, it.aggSpan(), l)
			}
		}
	}
	// Vertical aggregate terms may accompany either class; their arguments
	// must also resolve against F.
	for _, it := range a.items {
		if it.kind == itemVertAgg && it.agg.Arg != nil {
			checkMeasure(it.agg.Arg, a.schema, it.aggSpan(), l)
		}
	}
}

// checkMeasure verifies every column in a measure expression exists in F,
// pinning each violation to the column reference when the parser recorded
// its position.
func checkMeasure(e expr.Expr, schema storage.Schema, fallback diag.Span, l *diag.List) {
	_ = expr.Walk(e, func(n expr.Expr) error {
		ref, ok := n.(*expr.ColumnRef)
		if !ok {
			return nil
		}
		if schema.ColumnIndex(ref.Name) < 0 {
			span := ref.Span
			if span.IsZero() {
				span = fallback
			}
			l.Addf(diag.CodeUnknownMeasure, diag.Error, span,
				"measure references unknown column %q", ref.Name)
		}
		return nil
	})
}

// totalsOf returns the totals grouping D1..Dj of a vertical term over a
// grouping set (the GROUP BY columns, or a lattice node's): the set minus the
// BY columns, in set order. An empty BY list means totals over all rows
// (j = 0).
func totalsOf(set []string, call *expr.AggCall) []string {
	if len(call.By) == 0 {
		return nil
	}
	var out []string
	for _, g := range set {
		if !containsFold(call.By, g) {
			out = append(out, g)
		}
	}
	return out
}

// typeOf is the storage type of a column of F.
func (a *analysis) typeOf(col string) storage.ColumnType {
	return a.schema[a.schema.ColumnIndex(col)].Type
}

// colDefs renders the definitions of columns that copy cols of F under the
// given names.
func (a *analysis) colDefs(cols, names []string) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = colDef(names[i], a.typeOf(c))
	}
	return out
}

// outName proposes the output column name of a single-column select item:
// the alias, else the grouping column, the measure of a percentage (the
// paper's result tables title the percentage column with the measure name —
// Table 2 heads it "salesAmt"), or the aggregate's own text.
func (it item) outName() string {
	switch {
	case it.alias != "":
		return it.alias
	case it.kind == itemGroupCol:
		return it.col
	case it.kind == itemGrouping:
		return "grouping(" + strings.Join(it.gcols, ", ") + ")"
	case it.kind == itemPct:
		if cr, ok := it.agg.Arg.(*expr.ColumnRef); ok {
			return cr.Name
		}
		return "pct"
	default:
		return it.agg.String()
	}
}

// itemType is the storage type of a select item's result column(s).
func (a *analysis) itemType(it item) storage.ColumnType {
	switch it.kind {
	case itemGroupCol:
		return a.typeOf(it.col)
	case itemGrouping:
		return storage.TypeInt
	default:
		return aggResultType(it.agg, a.schema)
	}
}

// resultDefs renders the column list of a result table that holds one column
// per select item, under the given names.
func (a *analysis) resultDefs(names []string) string {
	defs := make([]string, len(a.items))
	for idx, it := range a.items {
		defs[idx] = colDef(names[idx], a.itemType(it))
	}
	return strings.Join(defs, ", ")
}

func containsFold(list []string, s string) bool {
	for _, x := range list {
		if strings.EqualFold(x, s) {
			return true
		}
	}
	return false
}
