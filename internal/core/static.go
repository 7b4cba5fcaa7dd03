// Static (dataflow-aware) lint checks: interval analysis over the WHERE
// clause. Unlike the linter's data-aware PCT101–PCT103 probes, which
// measure live cardinalities, these checks prove properties of the query
// text alone:
//
//	PCT106  the WHERE predicate set is contradictory — no row can satisfy
//	        it, so the query provably returns nothing
//	PCT107  a WHERE predicate is tautological — it constrains nothing
//	        (or nothing beyond filtering NULLs)
//	PCT108  the WHERE clause pins a Vpct/Hpct measure to 0, so the
//	        percentage denominator is provably zero and every percentage
//	        comes out NULL — the static sharpening of PCT101
//	PCT109  a comparison mixes incompatible types; the engine orders
//	        mixed-kind values by type tag, so the predicate never matches
//	        on value
//	PCT110  a Vpct BY list names the same dimension twice (PCT022 covers
//	        horizontal BY lists as an error; the vertical rule-checker
//	        accepts duplicates silently)
//
// The abstract domain is one interval set per column (interval.go) plus a
// three-valued "value when the column is NULL", so SQL three-valued logic
// is tracked soundly: per-column sets over-approximate the rows a
// predicate can accept (AND intersects, OR unions, NOT complements exact
// single-column predicates), which makes emptiness proofs — the
// contradiction and zero-denominator checks — sound, while tautology
// claims additionally require the predicate to be exactly characterized.
package core

import (
	"fmt"
	"strings"

	"sort"

	"repro/internal/diag"
	"repro/internal/expr"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/value"
)

// Three-valued result of a predicate when its column is NULL.
const (
	nvFalse = iota
	nvTrue
	nvNull
)

func not3(v int) int {
	switch v {
	case nvTrue:
		return nvFalse
	case nvFalse:
		return nvTrue
	}
	return nvNull
}

func and3(a, b int) int {
	switch {
	case a == nvFalse || b == nvFalse:
		return nvFalse
	case a == nvTrue && b == nvTrue:
		return nvTrue
	}
	return nvNull
}

func or3(a, b int) int {
	switch {
	case a == nvTrue || b == nvTrue:
		return nvTrue
	case a == nvFalse && b == nvFalse:
		return nvFalse
	}
	return nvNull
}

// colCon constrains one column: the set of non-NULL values on which the
// predicate can be true, plus the predicate's value when the column is
// NULL.
type colCon struct {
	set     *intset
	nullVal int
}

// neverTrue reports the predicate accepts no value of this column at all.
func (c colCon) neverTrue() bool { return c.set.isEmpty() && c.nullVal != nvTrue }

// alwaysTrue reports the predicate accepts every value including NULL.
func (c colCon) alwaysTrue() bool { return c.set.isFull() && c.nullVal == nvTrue }

// Constant truth values for column-free predicates.
const (
	tFalse = iota // always FALSE
	tTrue         // always TRUE
	tNull         // always NULL (never true, never false-definite)
	tRow          // depends on the row
)

// absPred is the abstract value of a predicate.
//
// When known, cols maps each mentioned column to an over-approximation of
// the rows the predicate accepts, projected on that column — sound for
// emptiness proofs. When exact additionally holds, the predicate mentions
// at most one column (exactCol) and satisfies the standard atom shape:
// TRUE exactly on cols[exactCol].set, FALSE on every other non-NULL
// value, nullVal when the column is NULL — the invariant NOT needs to
// complement precisely.
type absPred struct {
	known    bool
	truth    int
	cols     map[string]colCon
	exact    bool
	exactCol string
}

func unknownPred() absPred { return absPred{truth: tRow} }

func constPred(truth int) absPred {
	return absPred{known: true, truth: truth, exact: true}
}

func colPred(col string, con colCon) absPred {
	return absPred{known: true, truth: tRow,
		cols: map[string]colCon{col: con}, exact: true, exactCol: col}
}

// neverTrue reports the predicate provably accepts no row.
func (p absPred) neverTrue() bool {
	if !p.known {
		return false
	}
	if p.truth == tFalse || p.truth == tNull {
		return true
	}
	for _, c := range p.cols {
		if c.neverTrue() {
			return true
		}
	}
	return false
}

// alwaysTrue reports the predicate provably accepts every row.
func (p absPred) alwaysTrue() bool {
	if !p.known {
		return false
	}
	if p.truth == tTrue {
		return true
	}
	return p.exact && p.exactCol != "" && p.cols[p.exactCol].alwaysTrue()
}

func andPred(a, b absPred) absPred {
	switch {
	case a.neverTrue():
		return a
	case b.neverTrue():
		return b
	case a.alwaysTrue():
		return b
	case b.alwaysTrue():
		return a
	case !a.known && !b.known:
		return unknownPred()
	case !b.known:
		a.exact = false
		return a
	case !a.known:
		b.exact = false
		return b
	}
	out := absPred{known: true, truth: tRow, cols: map[string]colCon{}}
	for col, c := range a.cols {
		out.cols[col] = c
	}
	for col, c := range b.cols {
		if prev, ok := out.cols[col]; ok {
			out.cols[col] = colCon{set: prev.set.intersect(c.set), nullVal: and3(prev.nullVal, c.nullVal)}
		} else {
			out.cols[col] = c
		}
	}
	if a.exact && b.exact && a.exactCol != "" && a.exactCol == b.exactCol {
		out.exact, out.exactCol = true, a.exactCol
	}
	return out
}

func orPred(a, b absPred) absPred {
	switch {
	case a.alwaysTrue():
		return a
	case b.alwaysTrue():
		return b
	case a.neverTrue():
		return b
	case b.neverTrue():
		return a
	case !a.known || !b.known:
		return unknownPred()
	}
	out := absPred{known: true, truth: tRow, cols: map[string]colCon{}}
	// Only columns constrained on both sides stay constrained: a row
	// satisfying one side may carry any value in the other side's columns.
	for col, ca := range a.cols {
		if cb, ok := b.cols[col]; ok {
			out.cols[col] = colCon{set: ca.set.union(cb.set), nullVal: or3(ca.nullVal, cb.nullVal)}
		}
	}
	if a.exact && b.exact && a.exactCol != "" && a.exactCol == b.exactCol {
		out.exact, out.exactCol = true, a.exactCol
	}
	return out
}

func notPred(a absPred) absPred {
	if !a.known || !a.exact {
		return unknownPred()
	}
	switch a.truth {
	case tTrue:
		return constPred(tFalse)
	case tFalse:
		return constPred(tTrue)
	case tNull:
		return constPred(tNull)
	}
	c := a.cols[a.exactCol]
	return colPred(a.exactCol, colCon{set: c.set.complement(), nullVal: not3(c.nullVal)})
}

// staticAnalyzer carries the per-query state of Analyze.
type staticAnalyzer struct {
	schema   storage.Schema
	list     *diag.List
	colClass map[string]ivClass // inferred class of schema-less columns
	poisoned map[string]bool    // schema-less columns compared against conflicting classes
	combined map[string]colCon  // per-column intersection across all conjuncts
}

// litClass classifies a literal for comparison-compatibility; ok is false
// for NULL and BOOLEAN literals, which the interval domain does not model.
func litClass(v *expr.Literal) (ivClass, bool) {
	switch {
	case v.Val.IsNumeric():
		return clsNum, true
	case v.Val.Kind() == value.KindString:
		return clsStr, true
	}
	return 0, false
}

// colType resolves a column's declared class. typed is false when there
// is no schema or the column is unknown to it; modeled is false for
// BOOLEAN columns, whose domain the analysis does not track.
func (sa *staticAnalyzer) colType(name string) (class ivClass, discrete, typed, modeled bool) {
	idx := -1
	if sa.schema != nil {
		idx = sa.schema.ColumnIndex(name)
	}
	if idx < 0 {
		return 0, false, false, true
	}
	switch sa.schema[idx].Type {
	case storage.TypeInt:
		return clsNum, true, true, true
	case storage.TypeFloat:
		return clsNum, false, true, true
	case storage.TypeString:
		return clsStr, false, true, true
	}
	return 0, false, true, false
}

// classFor resolves the interval class to analyze column name under, given
// a literal it is compared against. ok=false means the atom cannot be
// modeled; mismatch=true additionally reports a type clash worth a PCT109.
func (sa *staticAnalyzer) classFor(name string, lc ivClass) (class ivClass, discrete, ok, mismatch bool) {
	class, discrete, typed, modeled := sa.colType(name)
	if typed {
		if !modeled {
			// BOOLEAN column: a numeric or string literal can never match.
			return 0, false, false, true
		}
		if class != lc {
			return 0, false, false, true
		}
		return class, discrete, true, false
	}
	if sa.poisoned[name] {
		return 0, false, false, false
	}
	if prev, seen := sa.colClass[name]; seen && prev != lc {
		sa.poisoned[name] = true
		return 0, false, false, false
	}
	sa.colClass[name] = lc
	return lc, false, true, false
}

// typeMismatch reports a PCT109 at the column reference.
func (sa *staticAnalyzer) typeMismatch(ref *expr.ColumnRef, lit *expr.Literal) {
	colName := ref.Name
	colType := "untyped"
	if class, _, typed, modeled := sa.colType(strings.ToLower(ref.Name)); typed {
		switch {
		case !modeled:
			colType = storage.TypeBool.String()
		case class == clsNum:
			colType = "numeric"
		default:
			colType = storage.TypeString.String()
		}
	}
	sa.list.Add(diag.Diagnostic{
		Code: diag.CodeCmpTypeMismatch, Severity: diag.Warning,
		Span: ref.Span,
		Message: fmt.Sprintf("comparison of %s column %q with %s literal %s never matches on value: mixed-kind values order by type tag, not content",
			colType, colName, lit.Val.Kind(), lit),
		Fix: fmt.Sprintf("rewrite the literal as a %s value, or compare a different column", colType),
	})
}

// eval computes the abstract value of a predicate expression.
func (sa *staticAnalyzer) eval(e expr.Expr) absPred {
	switch n := e.(type) {
	case *expr.Literal:
		switch {
		case n.Val.IsNull():
			return constPred(tNull)
		case n.Val.Truthy():
			return constPred(tTrue)
		}
		return constPred(tFalse)
	case *expr.BinaryOp:
		switch n.Op {
		case "AND":
			return andPred(sa.eval(n.Left), sa.eval(n.Right))
		case "OR":
			return orPred(sa.eval(n.Left), sa.eval(n.Right))
		case "=", "<>", "!=", "<", "<=", ">", ">=":
			return sa.evalCmp(n)
		}
		return unknownPred()
	case *expr.UnaryOp:
		if n.Op == "NOT" {
			return notPred(sa.eval(n.Operand))
		}
		return unknownPred()
	case *expr.IsNull:
		return sa.evalIsNull(n)
	case *expr.Between:
		return sa.evalBetween(n)
	case *expr.InList:
		return sa.evalIn(n)
	}
	return unknownPred()
}

// flipOp mirrors a comparison operator for swapped operands.
func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // = and <> are symmetric
}

func (sa *staticAnalyzer) evalCmp(n *expr.BinaryOp) absPred {
	op := n.Op
	left, right := n.Left, n.Right
	if _, ok := left.(*expr.Literal); ok {
		left, right = right, left
		op = flipOp(op)
	}
	lit, ok := right.(*expr.Literal)
	if !ok {
		return unknownPred()
	}
	if ref, ok := left.(*expr.ColumnRef); ok {
		if lit.Val.IsNull() {
			return constPred(tNull) // col <op> NULL is NULL for every row
		}
		lc, lok := litClass(lit)
		if !lok {
			return unknownPred() // BOOLEAN literals are not modeled
		}
		class, discrete, cok, mismatch := sa.classFor(strings.ToLower(ref.Name), lc)
		if mismatch {
			sa.typeMismatch(ref, lit)
		}
		if !cok {
			return unknownPred()
		}
		set := rangeSet(class, discrete, op, lit.Val)
		if set == nil {
			return unknownPred()
		}
		return colPred(strings.ToLower(ref.Name), colCon{set: set, nullVal: nvNull})
	}
	if llit, ok := left.(*expr.Literal); ok {
		res, err := value.SQLCompare(op, llit.Val, lit.Val)
		if err != nil {
			return unknownPred()
		}
		switch {
		case res.IsNull():
			return constPred(tNull)
		case res.Truthy():
			return constPred(tTrue)
		}
		return constPred(tFalse)
	}
	return unknownPred()
}

func (sa *staticAnalyzer) evalIsNull(n *expr.IsNull) absPred {
	if lit, ok := n.Operand.(*expr.Literal); ok {
		if lit.Val.IsNull() != n.Negate {
			return constPred(tTrue)
		}
		return constPred(tFalse)
	}
	ref, ok := n.Operand.(*expr.ColumnRef)
	if !ok {
		return unknownPred()
	}
	name := strings.ToLower(ref.Name)
	class, discrete, _, _ := sa.colType(name)
	if c, seen := sa.colClass[name]; seen && !sa.poisoned[name] {
		class = c
	}
	if n.Negate {
		return colPred(name, colCon{set: fullSet(class, discrete), nullVal: nvFalse})
	}
	return colPred(name, colCon{set: emptySet(class, discrete), nullVal: nvTrue})
}

func (sa *staticAnalyzer) evalBetween(n *expr.Between) absPred {
	ref, ok := n.Operand.(*expr.ColumnRef)
	if !ok {
		return unknownPred()
	}
	lo, lok := n.Lo.(*expr.Literal)
	hi, hok := n.Hi.(*expr.Literal)
	if !lok || !hok {
		return unknownPred()
	}
	if lo.Val.IsNull() || hi.Val.IsNull() {
		if n.Negate {
			return unknownPred() // x NOT BETWEEN NULL AND h can still be true
		}
		// x BETWEEN NULL AND h is never true, but it is FALSE (not NULL)
		// beyond the non-NULL bound, so the atom is known yet not exact.
		name := strings.ToLower(ref.Name)
		class, discrete, _, _ := sa.colType(name)
		return absPred{known: true, truth: tRow,
			cols: map[string]colCon{name: {set: emptySet(class, discrete), nullVal: nvNull}}}
	}
	mk := func(op string, lit *expr.Literal) absPred {
		lc, lok := litClass(lit)
		if !lok {
			return unknownPred()
		}
		class, discrete, cok, mismatch := sa.classFor(strings.ToLower(ref.Name), lc)
		if mismatch {
			sa.typeMismatch(ref, lit)
		}
		if !cok {
			return unknownPred()
		}
		set := rangeSet(class, discrete, op, lit.Val)
		if set == nil {
			return unknownPred()
		}
		return colPred(strings.ToLower(ref.Name), colCon{set: set, nullVal: nvNull})
	}
	p := andPred(mk(">=", lo), mk("<=", hi))
	if n.Negate {
		return notPred(p)
	}
	return p
}

func (sa *staticAnalyzer) evalIn(n *expr.InList) absPred {
	ref, ok := n.Operand.(*expr.ColumnRef)
	if !ok {
		return unknownPred()
	}
	name := strings.ToLower(ref.Name)
	var set *intset
	sawNullElem := false
	for _, e := range n.List {
		lit, ok := e.(*expr.Literal)
		if !ok {
			return unknownPred()
		}
		if lit.Val.IsNull() {
			sawNullElem = true
			continue
		}
		lc, lok := litClass(lit)
		if !lok {
			return unknownPred()
		}
		class, discrete, cok, mismatch := sa.classFor(name, lc)
		if mismatch {
			sa.typeMismatch(ref, lit)
			continue // a mismatched element can never match; drop it
		}
		if !cok {
			return unknownPred()
		}
		p := pointSet(class, discrete, lit.Val)
		if set == nil {
			set = p
		} else {
			set = set.union(p)
		}
	}
	if set == nil {
		// Only NULL or mismatched elements: IN never matches on value.
		class, discrete, _, _ := sa.colType(name)
		set = emptySet(class, discrete)
	}
	if n.Negate {
		if sawNullElem {
			// x NOT IN (.., NULL) is never TRUE (it is NULL unless a
			// non-null element matches, in which case it is FALSE).
			return absPred{known: true, truth: tRow,
				cols: map[string]colCon{name: {set: emptySet(set.class, set.discrete), nullVal: nvNull}}}
		}
		return colPred(name, colCon{set: set.complement(), nullVal: nvNull})
	}
	p := colPred(name, colCon{set: set, nullVal: nvNull})
	if sawNullElem {
		// Values outside the set yield NULL, not FALSE: sound but not the
		// exact atom shape NOT relies on.
		p.exact = false
	}
	return p
}

// conjuncts flattens the top-level AND tree of a WHERE clause.
func conjuncts(e expr.Expr) []expr.Expr {
	if b, ok := e.(*expr.BinaryOp); ok && b.Op == "AND" {
		return append(conjuncts(b.Left), conjuncts(b.Right)...)
	}
	return []expr.Expr{e}
}

// firstRefSpan returns the span of the first positioned column reference
// in e, optionally restricted to one (lower-cased) column name.
func firstRefSpan(e expr.Expr, col string) diag.Span {
	var span diag.Span
	_ = expr.Walk(e, func(n expr.Expr) error {
		if !span.IsZero() {
			return nil
		}
		if ref, ok := n.(*expr.ColumnRef); ok && !ref.Span.IsZero() {
			if col == "" || strings.ToLower(ref.Name) == col {
				span = ref.Span
			}
		}
		return nil
	})
	return span
}

// Analyze runs the static, dataflow-aware lint checks (PCT106–PCT110)
// over one SELECT. It needs no live data: schema (the schema of F, nil
// when unknown) only sharpens the analysis with declared column types —
// INTEGER columns get a discrete interval domain and mixed-type
// comparisons become PCT109 findings. The result is not sorted; callers
// merge it into their own diagnostic list.
func Analyze(sel *sqlparse.Select, schema storage.Schema) []diag.Diagnostic {
	sa := &staticAnalyzer{
		schema:   schema,
		list:     &diag.List{},
		colClass: map[string]ivClass{},
		poisoned: map[string]bool{},
	}
	contradiction := sa.checkWhere(sel.Where)
	if !contradiction {
		sa.checkZeroDenominator(sel)
	}
	sa.checkVpctByDuplicates(sel)
	return sa.list.All()
}

// checkWhere runs the interval analysis over the WHERE clause, reporting
// PCT106/PCT107 (and PCT109 as a side effect of atom evaluation). It
// returns whether a contradiction was found and leaves the combined
// per-column constraints in sa.combined for the denominator check.
func (sa *staticAnalyzer) checkWhere(where expr.Expr) bool {
	sa.combined = map[string]colCon{}
	if where == nil {
		return false
	}
	contradiction := false
	for _, conj := range conjuncts(where) {
		p := sa.eval(conj)
		// A conjunct with no column reference (e.g. "1 = 1") has no span of
		// its own; anchor the finding at the first reference in the WHERE.
		span := firstRefSpan(conj, "")
		if span.IsZero() {
			span = firstRefSpan(where, "")
		}
		switch {
		case p.neverTrue():
			contradiction = true
			sa.list.Add(diag.Diagnostic{
				Code: diag.CodeContradiction, Severity: diag.Warning,
				Span: span,
				Message: fmt.Sprintf("predicate %s can never be true; the query provably returns no rows",
					conj),
				Fix: "remove or correct the contradictory predicate",
			})
		case p.alwaysTrue():
			sa.list.Add(diag.Diagnostic{
				Code: diag.CodeTautology, Severity: diag.Advisory,
				Span: span,
				Message: fmt.Sprintf("predicate %s is always true; it filters nothing",
					conj),
				Fix: "drop the predicate",
			})
		case sa.tautologyModuloNull(conj, p):
			col := p.exactCol
			sa.list.Add(diag.Diagnostic{
				Code: diag.CodeTautology, Severity: diag.Advisory,
				Span: firstRefSpan(conj, col),
				Message: fmt.Sprintf("predicate %s is satisfied by every non-NULL value of %q; it only filters rows where %q IS NULL",
					conj, col, col),
				Fix: fmt.Sprintf("state %s IS NOT NULL directly, or drop the predicate", col),
			})
		}
		if !p.known || p.neverTrue() {
			continue
		}
		for col, c := range p.cols {
			if sa.poisoned[col] {
				continue
			}
			if prev, ok := sa.combined[col]; ok {
				sa.combined[col] = colCon{set: prev.set.intersect(c.set), nullVal: and3(prev.nullVal, c.nullVal)}
			} else {
				sa.combined[col] = c
			}
		}
	}
	if contradiction {
		return true
	}
	// Cross-conjunct contradiction: each conjunct is satisfiable alone but
	// no value of some column satisfies all of them.
	cols := make([]string, 0, len(sa.combined))
	for col := range sa.combined {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	for _, col := range cols {
		if sa.poisoned[col] || !sa.combined[col].neverTrue() {
			continue
		}
		contradiction = true
		sa.list.Add(diag.Diagnostic{
			Code: diag.CodeContradiction, Severity: diag.Warning,
			Span: firstRefSpan(where, col),
			Message: fmt.Sprintf("the WHERE predicates on %q are contradictory: no value satisfies all of them, so the query provably returns no rows",
				col),
			Fix: "correct the bounds so the ranges overlap",
		})
	}
	return contradiction
}

// tautologyModuloNull reports an exact single-column predicate that every
// non-NULL value satisfies — equivalent to IS NOT NULL, which is worth
// flagging unless the author literally wrote IS [NOT] NULL.
func (sa *staticAnalyzer) tautologyModuloNull(conj expr.Expr, p absPred) bool {
	if _, isNull := conj.(*expr.IsNull); isNull {
		return false
	}
	if !p.known || !p.exact || p.exactCol == "" {
		return false
	}
	c := p.cols[p.exactCol]
	return c.set.isFull() && c.nullVal != nvTrue
}

// checkZeroDenominator reports PCT108 for percentage calls whose measure
// the WHERE clause pins to zero (or that sum a constant zero/NULL): the
// per-group total — the percentage denominator — is then provably zero or
// NULL, and every percentage comes out NULL.
func (sa *staticAnalyzer) checkZeroDenominator(sel *sqlparse.Select) {
	for _, it := range sel.Items {
		if it.Star {
			continue
		}
		span := it.Span
		_ = expr.Walk(it.Expr, func(n expr.Expr) error {
			call, ok := n.(*expr.AggCall)
			if !ok || (call.Fn != expr.AggVpct && call.Fn != expr.AggHpct) {
				return nil
			}
			cs := span
			if !call.Span.IsZero() {
				cs = call.Span
			}
			switch arg := call.Arg.(type) {
			case *expr.Literal:
				if f, ok := arg.Val.AsFloat(); ok && f == 0 { // floateq:ok a literal 0 denominator is exact by design
					sa.list.Add(diag.Diagnostic{
						Code: diag.CodeZeroDenominator, Severity: diag.Warning, Span: cs,
						Message: fmt.Sprintf("%s sums the constant %s, so its denominator total is identically zero and every percentage is NULL",
							call.Fn, arg),
						Fix: "sum a measure column instead of a constant zero",
					})
				} else if arg.Val.IsNull() {
					sa.list.Add(diag.Diagnostic{
						Code: diag.CodeZeroDenominator, Severity: diag.Warning, Span: cs,
						Message: fmt.Sprintf("%s sums the constant NULL, so its denominator total is identically NULL and every percentage is NULL",
							call.Fn),
						Fix: "sum a measure column instead of a NULL literal",
					})
				}
			case *expr.ColumnRef:
				col := strings.ToLower(arg.Name)
				con, ok := sa.combined[col]
				if !ok || sa.poisoned[col] || con.set.isEmpty() || con.set.class != clsNum {
					return nil
				}
				zero := pointSet(con.set.class, con.set.discrete, value.NewInt(0))
				if con.set.subsetOf(zero) {
					sa.list.Add(diag.Diagnostic{
						Code: diag.CodeZeroDenominator, Severity: diag.Warning, Span: cs,
						Message: fmt.Sprintf("the WHERE clause restricts %q to 0 on every qualifying row, so the %s denominator (the per-group total of %q) is provably zero and every percentage is NULL",
							arg.Name, call.Fn, arg.Name),
						Fix: "widen the WHERE range on the measure, or choose a different measure",
					})
				}
			}
			return nil
		})
	}
}

// checkVpctByDuplicates reports PCT110 for duplicate dimensions in a Vpct
// BY list. The rule-checker rejects duplicates in horizontal BY lists
// (PCT022) but accepts them for Vpct, where they change nothing — which
// almost always means a different column was intended.
//
// Under GROUP BY ROLLUP/CUBE/GROUPING SETS the check runs per lattice node:
// the duplicate is a no-op only in the grouping sets that actually contain
// the dimension, so one finding fires per such set, naming it. A duplicate
// dimension belonging to no set draws no finding at all — every node ignores
// it entirely, grouped or not.
func (sa *staticAnalyzer) checkVpctByDuplicates(sel *sqlparse.Select) {
	sets := staticGroupingSets(sel)
	for _, it := range sel.Items {
		if it.Star {
			continue
		}
		span := it.Span
		_ = expr.Walk(it.Expr, func(n expr.Expr) error {
			call, ok := n.(*expr.AggCall)
			if !ok || call.Fn != expr.AggVpct {
				return nil
			}
			seen := map[string]bool{}
			for i, b := range call.By {
				lo := strings.ToLower(b)
				if !seen[lo] {
					seen[lo] = true
					continue
				}
				bs := span
				if i < len(call.BySpans) && !call.BySpans[i].IsZero() {
					bs = call.BySpans[i]
				} else if !call.Span.IsZero() {
					bs = call.Span
				}
				if sel.GroupSets == nil || sets == nil {
					sa.list.Add(diag.Diagnostic{
						Code: diag.CodeVpctByDuplicate, Severity: diag.Warning, Span: bs,
						Message: fmt.Sprintf("duplicate Vpct BY dimension %q; the duplicate does not change the subgrouping and usually means a different column was intended",
							b),
						Fix: "drop the duplicate or name the intended column",
					})
					continue
				}
				for _, s := range sets {
					if !containsFold(s, b) {
						continue
					}
					sa.list.Add(diag.Diagnostic{
						Code: diag.CodeVpctByDuplicate, Severity: diag.Warning, Span: bs,
						Message: fmt.Sprintf("duplicate Vpct BY dimension %q in grouping set (%s); the duplicate does not change that node's subgrouping and usually means a different column was intended",
							b, strings.Join(s, ", ")),
						Fix: "drop the duplicate or name the intended column",
					})
				}
			}
			return nil
		})
	}
}

// staticGroupingSets resolves a ROLLUP/CUBE/GROUPING SETS clause textually —
// no schema, no diagnostics — and expands it as resolveGroupingSets does
// (latticeSets), so static checks can report per lattice node. Unresolvable
// keys are skipped, and an over-sized lattice returns nil, in which case
// callers fall back to the statement-level finding.
func staticGroupingSets(sel *sqlparse.Select) [][]string {
	spec := sel.GroupSets
	if spec == nil {
		return nil
	}
	add := func(dst []string, g sqlparse.GroupKey) []string {
		name := g.Column
		if g.Position > 0 {
			if g.Position > len(sel.Items) {
				return dst
			}
			ref, ok := sel.Items[g.Position-1].Expr.(*expr.ColumnRef)
			if !ok {
				return dst
			}
			name = ref.Name
		}
		if name == "" || containsFold(dst, name) {
			return dst
		}
		return append(dst, name)
	}
	var dims []string
	for _, g := range spec.Dims {
		dims = add(dims, g)
	}
	lists := make([][]string, len(spec.Sets))
	for i, rawSet := range spec.Sets {
		lists[i] = []string{}
		for _, g := range rawSet {
			lists[i] = add(lists[i], g)
		}
	}
	sets := latticeSets(spec.Kind, dims, lists, func(int) {})
	if len(sets) > maxLatticeNodes {
		return nil
	}
	return sets
}
