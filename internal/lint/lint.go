// Package lint is the static semantic analyzer for percentage queries
// ("pctlint"). It layers on top of the core planner's collecting analysis:
// error-class checks are exactly the usage rules the planner enforces
// (reported all at once, with source positions, instead of fail-fast), and
// the linter adds warning/advisory checks for the paper's silent failure
// modes — division by zero, missing rows, Hpct column explosion — plus
// strategy advisories from the planner's advisor.
//
// Warning checks are data-aware: they run the same feedback queries the
// planner uses (SELECT DISTINCT over the subgrouping columns) against live
// data, so a query lints differently on different tables — by design. The
// paper's failure modes are properties of the data, not the text.
package lint

import (
	"context"
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// Diagnostic is re-exported so callers need not import internal/diag.
type Diagnostic = diag.Diagnostic

// Linter runs the full check suite over parsed statements. It needs a
// planner (and through it an engine) because the warning checks measure
// live cardinalities with feedback queries.
type Linter struct {
	Planner *core.Planner
	// ColumnLimit is the DBMS column limit PCT103 checks Hpct results
	// against. Zero means the planner's MaxColumns.
	ColumnLimit int
}

// New returns a linter over the planner.
func New(p *core.Planner) *Linter { return &Linter{Planner: p} }

func (l *Linter) columnLimit() int {
	if l.ColumnLimit > 0 {
		return l.ColumnLimit
	}
	if l.Planner.MaxColumns > 0 {
		return l.Planner.MaxColumns
	}
	return 2048
}

// maxColumnsRE matches a "-- lint:max-columns=N" script comment, which pins
// the PCT103 column limit for a self-describing script.
var maxColumnsRE = regexp.MustCompile(`lint:max-columns=(\d+)`)

// maxColumnsDirective extracts a "lint:max-columns=N" directive from a
// script's comments, or 0 when absent.
func maxColumnsDirective(src string) int {
	m := maxColumnsRE.FindStringSubmatch(src)
	if m == nil {
		return 0
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// LintSQL lints a semicolon-separated script. Syntax errors surface as a
// single PCT000 diagnostic. SELECT (and EXPLAIN) statements are linted;
// every other statement is executed against the engine so that DDL and
// loads earlier in a script provide the catalog and data the checks need.
// A "-- lint:max-columns=N" comment in the script pins the PCT103 limit
// unless the linter already has an explicit ColumnLimit. The error return
// reports an infrastructure failure (a setup statement that did not
// execute), not a finding.
func (l *Linter) LintSQL(src string) ([]Diagnostic, error) {
	if l.ColumnLimit == 0 {
		if n := maxColumnsDirective(src); n > 0 {
			defer func(old int) { l.ColumnLimit = old }(l.ColumnLimit)
			l.ColumnLimit = n
		}
	}
	stmts, err := sqlparse.ParseAll(src)
	if err != nil {
		return []Diagnostic{syntaxDiagnostic(err)}, nil
	}
	var out []Diagnostic
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *sqlparse.Select:
			out = append(out, l.lintSelect(s)...)
		case *sqlparse.Explain:
			out = append(out, l.lintSelect(s.Query)...)
		default:
			if _, err := l.Planner.Eng.ExecuteCtxIn(context.Background(), stmt, l.Planner.Eng.Parallelism(), nil); err != nil {
				return out, fmt.Errorf("lint: setup statement failed: %w", err)
			}
		}
	}
	return out, nil
}

// LintQueries lints the SELECT (and EXPLAIN) statements of a script
// against the engine's current catalog and data, without executing
// anything else in the script — the read-only variant LintSQL's setup
// execution would make unsuitable for linting against a live database.
func (l *Linter) LintQueries(src string) []Diagnostic {
	stmts, err := sqlparse.ParseAll(src)
	if err != nil {
		return []Diagnostic{syntaxDiagnostic(err)}
	}
	var out []Diagnostic
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *sqlparse.Select:
			out = append(out, l.lintSelect(s)...)
		case *sqlparse.Explain:
			out = append(out, l.lintSelect(s.Query)...)
		}
	}
	return out
}

// syntaxDiagnostic wraps a parse error as a PCT000 finding, positioned
// when the parser reported a location.
func syntaxDiagnostic(err error) Diagnostic {
	d := Diagnostic{Code: diag.CodeSyntax, Severity: diag.Error, Message: err.Error()}
	if se, ok := err.(*sqlparse.SyntaxError); ok {
		d.Span = se.Span()
		d.Message = se.Msg
	}
	return d
}

// lintSelect checks one SELECT. Error-class findings come from the
// planner's collecting analysis; the static dataflow checks (core.Analyze,
// PCT106–PCT110) run on every statement — standard SELECTs included —
// and when the query is a structurally valid percentage query the
// data-aware warning and advisory checks run on top. The result is sorted
// by source position, then code, so repeated runs render identically.
func (l *Linter) lintSelect(sel *sqlparse.Select) []Diagnostic {
	shape, ds := l.Planner.Check(sel)
	static := core.Analyze(sel, l.schemaFor(sel, shape))
	ds = append(ds, static...)
	if diag.HasErrors(ds) || shape == nil || shape.Class == core.ClassStandard {
		diag.Sort(ds)
		return ds
	}
	// PCT108 statically proves what PCT101 would measure: suppress the
	// weaker data-aware finding for the same aggregate term.
	proven := map[diag.Span]bool{}
	for _, d := range static {
		if d.Code == diag.CodeZeroDenominator {
			proven[d.Span] = true
		}
	}
	ds = append(ds, l.checkDivZero(shape, proven)...)
	ds = append(ds, l.checkMissingRows(shape)...)
	ds = append(ds, l.checkColumnExplosion(shape)...)
	ds = append(ds, l.checkOrdering(shape)...)
	ds = append(ds, l.checkStrategy(sel, shape)...)
	diag.Sort(ds)
	return ds
}

// schemaFor resolves the schema of F for the static checks: the checked
// shape's schema when analysis got that far, else a direct catalog lookup
// (standard SELECTs never populate a shape), else nil — the static
// analysis degrades gracefully without declared types.
func (l *Linter) schemaFor(sel *sqlparse.Select, shape *core.QueryShape) storage.Schema {
	if shape != nil && len(shape.Schema) > 0 {
		return shape.Schema
	}
	if len(sel.From) == 1 {
		if tab, err := l.Planner.Eng.Catalog().Get(sel.From[0].Table.Name); err == nil {
			return tab.Schema()
		}
	}
	return nil
}

// count runs SELECT count(*) FROM table with the given " WHERE …" suffix, a
// statement the linter generates rather than one a caller sent.
func (l *Linter) count(table, whereSQL string) (int, bool) {
	res, err := l.Planner.Eng.ExecSQLCtx(engine.Generated(context.Background()), "SELECT count(*) FROM "+table+whereSQL)
	if err != nil || len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return 0, false
	}
	n, ok := res.Rows[0][0].AsInt()
	return int(n), ok
}

// andWhere appends a condition to an existing " WHERE …" suffix.
func andWhere(whereSQL, cond string) string {
	if whereSQL == "" {
		return " WHERE " + cond
	}
	return whereSQL + " AND " + cond
}

// checkDivZero implements PCT101: if a percentage measure is NULL or
// non-positive on some rows, a super-group total can come out zero or
// NULL, and the paper's division-by-zero treatment makes those percentages
// NULL. The probe is a count over live data, deduplicated per measure
// expression. Terms whose zero denominator PCT108 already proved
// statically are skipped.
func (l *Linter) checkDivZero(shape *core.QueryShape, proven map[diag.Span]bool) []Diagnostic {
	var out []Diagnostic
	seen := map[string]bool{}
	for _, t := range shape.Aggs {
		if !t.Pct || t.Call.Arg == nil || proven[t.Span] {
			continue
		}
		arg := t.Call.Arg.String()
		if seen[arg] {
			continue
		}
		seen[arg] = true
		cond := fmt.Sprintf("(%s IS NULL OR %s <= 0)", arg, arg)
		n, ok := l.count(shape.Table, andWhere(shape.WhereSQL, cond))
		if !ok || n == 0 {
			continue
		}
		out = append(out, Diagnostic{
			Code: diag.CodeDivZeroRisk, Severity: diag.Warning, Span: t.Span,
			Message: fmt.Sprintf("measure %s is NULL or non-positive on %d row(s) of %s; a zero or NULL total makes the percentages of that group NULL (the paper's division-by-zero treatment)",
				arg, n, shape.Table),
			Fix: "filter those rows in WHERE, or accept NULL percentages for the affected groups",
		})
	}
	return out
}

// checkMissingRows implements PCT102: when some combinations of the
// grouping and subgrouping columns never occur in F, a vertical result
// silently lacks those rows, and a horizontal result has NULL cells — the
// paper's missing-rows failure mode.
func (l *Linter) checkMissingRows(shape *core.QueryShape) []Diagnostic {
	var out []Diagnostic
	seen := map[string]bool{}
	for _, t := range shape.Aggs {
		if len(t.Call.By) == 0 || !(t.Pct || t.Horizontal) {
			continue
		}
		key := strings.Join(t.Call.By, ",")
		if seen[key] {
			continue
		}
		seen[key] = true

		var coarse []string
		if t.Horizontal {
			coarse = shape.GroupCols
		} else {
			// Vertical: the totals grouping is GROUP BY minus BY.
			for _, g := range shape.GroupCols {
				if !containsFold(t.Call.By, g) {
					coarse = append(coarse, g)
				}
			}
		}
		fine := append(append([]string{}, coarse...), t.Call.By...)
		nCoarse, err1 := l.Planner.CountDistinct(shape.Table, coarse, shape.WhereSQL)
		nBy, err2 := l.Planner.CountDistinct(shape.Table, t.Call.By, shape.WhereSQL)
		nFine, err3 := l.Planner.CountDistinct(shape.Table, fine, shape.WhereSQL)
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		possible := nCoarse * nBy
		if nFine >= possible {
			continue
		}
		missing := possible - nFine
		if t.Horizontal {
			out = append(out, Diagnostic{
				Code: diag.CodeMissingRows, Severity: diag.Warning, Span: t.Span,
				Message: fmt.Sprintf("%d of %d (%s) × (%s) combinations are absent from %s; the corresponding result cells will be NULL (the paper's missing-rows failure mode)",
					missing, possible, strings.Join(coarse, ", "), strings.Join(t.Call.By, ", "), shape.Table),
				Fix: "treat NULL cells as zero downstream, or pre-process F to insert zero-measure rows for the absent combinations",
			})
		} else {
			out = append(out, Diagnostic{
				Code: diag.CodeMissingRows, Severity: diag.Warning, Span: t.Span,
				Message: fmt.Sprintf("%d of %d (%s) × (%s) combinations are absent from %s; the result will silently lack rows for them (the paper's missing-rows failure mode)",
					missing, possible, strings.Join(coarse, ", "), strings.Join(t.Call.By, ", "), shape.Table),
				Fix: "enable the missing-rows treatment (Options.Vpct.MissingRows) to emit explicit zero-percentage rows",
			})
		}
	}
	return out
}

// checkColumnExplosion implements PCT103: Hpct creates one result column
// per distinct BY combination; past the DBMS column limit the planner
// vertically partitions the result into several tables.
func (l *Linter) checkColumnExplosion(shape *core.QueryShape) []Diagnostic {
	limit := l.columnLimit()
	var out []Diagnostic
	seen := map[string]bool{}
	for _, t := range shape.Aggs {
		if !t.Horizontal || len(t.Call.By) == 0 {
			continue
		}
		key := strings.Join(t.Call.By, ",")
		if seen[key] {
			continue
		}
		seen[key] = true
		n, err := l.Planner.CountDistinct(shape.Table, t.Call.By, shape.WhereSQL)
		if err != nil || n <= limit {
			continue
		}
		parts := (n + limit - 1) / limit
		out = append(out, Diagnostic{
			Code: diag.CodeColumnExplosion, Severity: diag.Warning, Span: t.Span,
			Message: fmt.Sprintf("the BY list (%s) has %d distinct combinations, exceeding the column limit %d; the horizontal result will be vertically partitioned into %d tables",
				strings.Join(t.Call.By, ", "), n, limit, parts),
			Fix: "narrow the BY list or filter F; or raise Planner.MaxColumns if the DBMS allows wider tables",
		})
	}
	return out
}

// checkOrdering implements PCT104: without ORDER BY, result row order is
// implementation-defined. (Column order is safe: the planner's feedback
// query already sorts the BY combinations.)
func (l *Linter) checkOrdering(shape *core.QueryShape) []Diagnostic {
	if shape.HasOrderBy || len(shape.GroupCols) == 0 {
		return nil
	}
	horizontal := false
	var span diag.Span
	for _, t := range shape.Aggs {
		if t.Horizontal || t.Pct {
			if span.IsZero() {
				span = t.Span
			}
		}
		if t.Horizontal {
			horizontal = true
		}
	}
	if !horizontal && shape.Class != core.ClassVertical {
		return nil
	}
	return []Diagnostic{{
		Code: diag.CodeUnorderedResult, Severity: diag.Advisory, Span: span,
		Message: "result row order is not guaranteed without ORDER BY",
		Fix:     "add ORDER BY " + strings.Join(shape.GroupCols, ", "),
	}}
}

// checkStrategy implements PCT105: run the advisor — which compares |F| with
// the number of distinct (D1..Dk) combinations, measured by one scan of F —
// and report when it recommends non-default evaluation strategy knobs.
func (l *Linter) checkStrategy(sel *sqlparse.Select, shape *core.QueryShape) []Diagnostic {
	opts, err := l.Planner.Advise(sel)
	if err != nil {
		return nil
	}
	def := core.DefaultOptions()
	var recs []string
	switch shape.Class {
	case core.ClassVertical:
		if opts.Vpct != def.Vpct {
			recs = append(recs, "non-default vertical strategy knobs")
		}
	case core.ClassHorizontalPct:
		if opts.Hpct.FromFV != def.Hpct.FromFV {
			recs = append(recs, "compute FH from the vertical percentage table FV (Options.Hpct.FromFV)")
		}
	case core.ClassHorizontalAgg:
		if opts.Hagg.FromFV != def.Hagg.FromFV {
			recs = append(recs, "aggregate from the vertical pre-aggregate FV (Options.Hagg.FromFV)")
		}
		if opts.Hagg.Method != def.Hagg.Method {
			recs = append(recs, "use the SPJ method (Options.Hagg.Method)")
		}
	}
	if len(recs) == 0 {
		return nil
	}
	var span diag.Span
	for _, t := range shape.Aggs {
		if t.Pct || t.Horizontal {
			span = t.Span
			break
		}
	}
	return []Diagnostic{{
		Code: diag.CodeStrategy, Severity: diag.Advisory, Span: span,
		Message: "the advisor, comparing |F| with the number of distinct grouping combinations, recommends a non-default evaluation strategy: " + strings.Join(recs, "; "),
		Fix:     "pass the advisor's options (Planner.Advise) instead of DefaultOptions when planning this query",
	}}
}

func containsFold(list []string, s string) bool {
	for _, x := range list {
		if strings.EqualFold(x, s) {
			return true
		}
	}
	return false
}
