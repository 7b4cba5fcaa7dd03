package expr

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/diag"
	"repro/internal/value"
)

// Literal is a constant value.
type Literal struct {
	Val value.Value
}

// NewLiteral wraps a value as an expression.
func NewLiteral(v value.Value) *Literal { return &Literal{Val: v} }

// Eval returns the constant.
func (l *Literal) Eval(Row) (value.Value, error) { return l.Val, nil }

// String renders the literal as SQL (strings quoted, NULL bare).
func (l *Literal) String() string {
	if l.Val.Kind() == value.KindString {
		return "'" + strings.ReplaceAll(l.Val.Str(), "'", "''") + "'"
	}
	return l.Val.String()
}

// ColumnRef names a column, optionally qualified (table.column). Before
// binding, Index is meaningless; evaluation requires a bound reference.
type ColumnRef struct {
	Qualifier string
	Name      string
	Index     int
	bound     bool
	// Span locates the reference in the statement source when the parser
	// produced it; zero for programmatically built references.
	Span diag.Span
}

// Col returns an unbound reference to name.
func Col(name string) *ColumnRef { return &ColumnRef{Name: name} }

// QCol returns an unbound qualified reference.
func QCol(qualifier, name string) *ColumnRef {
	return &ColumnRef{Qualifier: qualifier, Name: name}
}

// BoundCol returns a reference already resolved to position idx.
func BoundCol(name string, idx int) *ColumnRef {
	return &ColumnRef{Name: name, Index: idx, bound: true}
}

// Bound reports whether the reference has been resolved.
func (c *ColumnRef) Bound() bool { return c.bound }

// Eval reads the resolved column from the row.
func (c *ColumnRef) Eval(row Row) (value.Value, error) {
	if !c.bound {
		return value.Null, fmt.Errorf("expr: unbound column reference %s", c)
	}
	return row.ColumnValue(c.Index), nil
}

// String renders the (possibly qualified) name.
func (c *ColumnRef) String() string {
	if c.Qualifier != "" {
		return c.Qualifier + "." + c.Name
	}
	return c.Name
}

// SlotRef reads a row position directly. The engine substitutes SlotRefs for
// aggregate calls after computing them per group.
type SlotRef struct {
	Index int
	Label string
}

// Eval reads the slot.
func (s *SlotRef) Eval(row Row) (value.Value, error) { return row.ColumnValue(s.Index), nil }

// String renders a placeholder name.
func (s *SlotRef) String() string {
	if s.Label != "" {
		return s.Label
	}
	return fmt.Sprintf("$%d", s.Index)
}

// BinaryOp applies Op ("+", "-", "*", "/", "=", "<>", "<", "<=", ">", ">=",
// "AND", "OR") to two operands.
type BinaryOp struct {
	Op          string
	Left, Right Expr
	// Set by Bind on a bound column = constant comparison (ColumnConst): the
	// horizontal strategies evaluate N CASE conditions per row, each a
	// conjunction of such tests, and the prepared form skips operand boxing and
	// the operator switch. eqVal is nil on every other node.
	eqVal *value.Value
	col   int
}

// prepare recognizes bound column = constant, either way round. The operands
// stay in the tree, so the rendered text does not change.
func (b *BinaryOp) prepare() {
	if b.Op != "=" {
		return
	}
	for _, side := range [2][2]Expr{{b.Left, b.Right}, {b.Right, b.Left}} {
		if c, ok := side[0].(*ColumnRef); ok && c.bound {
			if v := constant(side[1]); v != nil {
				b.eqVal, b.col = v, c.Index
				return
			}
		}
	}
}

// ColumnConst reports the comparison Bind prepared on the node: the position
// of the column and the constant it must equal under SQL equality (a NULL
// constant equals nothing). ok is false for every other node.
func (b *BinaryOp) ColumnConst() (col int, val value.Value, ok bool) {
	if b.eqVal == nil {
		return 0, value.Null, false
	}
	return b.col, *b.eqVal, true
}

// constant returns e's constant when e is a literal — the literal's own value,
// so preparing a comparison allocates nothing — or the negation of a numeric
// one: the parser reads -3 as the unary minus of 3, and without the fold a
// negative constant would miss every fast path a positive one takes.
func constant(e Expr) *value.Value {
	switch n := e.(type) {
	case *Literal:
		return &n.Val
	case *UnaryOp:
		if lit, ok := n.Operand.(*Literal); ok && n.Op == "-" && lit.Val.IsNumeric() {
			if v, err := value.Neg(lit.Val); err == nil {
				return &v
			}
		}
	}
	return nil
}

// ConstValue folds e to its constant when e is a literal or the negation of a
// numeric one.
func ConstValue(e Expr) (value.Value, bool) {
	if v := constant(e); v != nil {
		return *v, true
	}
	return value.Null, false
}

// ErrFree reports whether Eval of the bound predicate e cannot return an
// error — a conjunction of prepared column = constant tests and IS [NOT] NULL
// tests of a column. It is the condition for vectorizing a filter and for
// dispatching a CASE arm.
func ErrFree(e Expr) bool {
	switch n := e.(type) {
	case *BinaryOp:
		if n.Op == "AND" {
			return ErrFree(n.Left) && ErrFree(n.Right)
		}
		return n.eqVal != nil
	case *IsNull:
		c, ok := n.Operand.(*ColumnRef)
		return ok && c.bound
	}
	return false
}

// Eval applies the operator with SQL semantics (see the value package).
func (b *BinaryOp) Eval(row Row) (value.Value, error) {
	if b.eqVal != nil {
		return value.SQLEqual(row.ColumnValue(b.col), *b.eqVal), nil
	}
	l, err := b.Left.Eval(row)
	if err != nil {
		return value.Null, err
	}
	and := b.Op == "AND"
	if and && !l.IsNull() && !l.Truthy() {
		// A definitely-false left side decides AND under three-valued logic;
		// evaluation is side-effect free, so the right side is skipped. (A NULL
		// left still needs it, and so does every OR.)
		return value.NewBool(false), nil
	}
	r, err := b.Right.Eval(row)
	if err != nil {
		return value.Null, err
	}
	if and { // ahead of the operator switch: conjunctions are the per-row hot path
		return value.And(l, r), nil
	}
	switch b.Op {
	case "+":
		return value.Add(l, r)
	case "-":
		return value.Sub(l, r)
	case "*":
		return value.Mul(l, r)
	case "/":
		return value.Div(l, r)
	case "OR":
		return value.Or(l, r), nil
	case "=", "<>", "!=", "<", "<=", ">", ">=":
		return value.SQLCompare(b.Op, l, r)
	default:
		return value.Null, fmt.Errorf("expr: unknown binary operator %q", b.Op)
	}
}

// String renders the operation fully parenthesized.
func (b *BinaryOp) String() string {
	return "(" + b.Left.String() + " " + b.Op + " " + b.Right.String() + ")"
}

// UnaryOp applies "-" or "NOT".
type UnaryOp struct {
	Op      string
	Operand Expr
}

// Eval applies the operator.
func (u *UnaryOp) Eval(row Row) (value.Value, error) {
	v, err := u.Operand.Eval(row)
	if err != nil {
		return value.Null, err
	}
	switch u.Op {
	case "-":
		return value.Neg(v)
	case "NOT":
		return value.Not(v), nil
	default:
		return value.Null, fmt.Errorf("expr: unknown unary operator %q", u.Op)
	}
}

// String renders the operation.
func (u *UnaryOp) String() string {
	if u.Op == "NOT" {
		return "(NOT " + u.Operand.String() + ")"
	}
	return "(" + u.Op + u.Operand.String() + ")"
}

// IsNull implements IS NULL and IS NOT NULL, which never return NULL.
type IsNull struct {
	Operand Expr
	Negate  bool
}

// Eval tests nullness.
func (i *IsNull) Eval(row Row) (value.Value, error) {
	v, err := i.Operand.Eval(row)
	if err != nil {
		return value.Null, err
	}
	return value.NewBool(v.IsNull() != i.Negate), nil
}

// String renders the predicate.
func (i *IsNull) String() string {
	if i.Negate {
		return "(" + i.Operand.String() + " IS NOT NULL)"
	}
	return "(" + i.Operand.String() + " IS NULL)"
}

// When is one WHEN … THEN … arm of a CASE.
type When struct {
	Cond   Expr
	Result Expr
}

// Case is a searched CASE expression. Arms are evaluated in order; the first
// truthy condition selects the result; the ELSE (or NULL) applies otherwise.
// The paper's horizontal strategies rest on CASE: each result column of FH is
// one sum(CASE WHEN D=v THEN A ELSE …) term.
type Case struct {
	Whens []When
	Else  Expr
	// Set by Rebind on the guarded division (GuardedDiv): the positions of
	// the numerator and denominator. Held in the node, so preparing one
	// allocates nothing; isDiv is false on every other node.
	div   [2]int
	isDiv bool
}

// prepare recognizes CASE WHEN d <> 0 THEN n / d [ELSE NULL] END over slots n
// and d — bound columns of the input, or a fold's group slots — the division
// every percentage plan ends in. The arms stay in the tree, so Eval and the
// rendered text do not change.
func (c *Case) prepare() {
	if len(c.Whens) != 1 {
		return
	}
	if c.Else != nil {
		if v := constant(c.Else); v == nil || !v.IsNull() {
			return
		}
	}
	cond, _ := c.Whens[0].Cond.(*BinaryOp)
	quot, _ := c.Whens[0].Result.(*BinaryOp)
	if cond == nil || quot == nil || cond.Op != "<>" || quot.Op != "/" {
		return
	}
	d, dok := slot(cond.Left)
	zero := constant(cond.Right)
	n, nok := slot(quot.Left)
	over, ook := slot(quot.Right)
	if !dok || !nok || !ook || over != d || zero == nil || zero.Kind() != value.KindInt || zero.Int() != 0 {
		return
	}
	c.div, c.isDiv = [2]int{n, d}, true
}

// slot reports the row position e reads when it is a bound column or a slot.
func slot(e Expr) (int, bool) {
	switch n := e.(type) {
	case *ColumnRef:
		return n.Index, n.bound
	case *SlotRef:
		return n.Index, true
	}
	return 0, false
}

// GuardedDiv reports the division Rebind prepared on the node: the positions
// of slots n and d of CASE WHEN d <> 0 THEN n / d ELSE NULL END. Over numeric
// cells its value is value.Div(n, d) where d compares unequal to zero (a NaN
// does not) and NULL everywhere else. ok is false for every other node.
func (c *Case) GuardedDiv() (num, den int, ok bool) {
	if !c.isDiv {
		return 0, 0, false
	}
	return c.div[0], c.div[1], true
}

// Eval evaluates arms in order.
func (c *Case) Eval(row Row) (value.Value, error) {
	for _, w := range c.Whens {
		cond, err := w.Cond.Eval(row)
		if err != nil {
			return value.Null, err
		}
		if cond.Truthy() {
			return w.Result.Eval(row)
		}
	}
	if c.Else != nil {
		return c.Else.Eval(row)
	}
	return value.Null, nil
}

// String renders the full CASE text.
func (c *Case) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range c.Whens {
		sb.WriteString(" WHEN ")
		sb.WriteString(w.Cond.String())
		sb.WriteString(" THEN ")
		sb.WriteString(w.Result.String())
	}
	if c.Else != nil {
		sb.WriteString(" ELSE ")
		sb.WriteString(c.Else.String())
	}
	sb.WriteString(" END")
	return sb.String()
}

// FuncCall invokes a scalar function from the built-in library:
// abs, coalesce, nullif, round, floor, ceiling, sqrt, mod, least, greatest.
type FuncCall struct {
	Name string
	Args []Expr
}

// Eval dispatches on the lower-cased function name.
func (f *FuncCall) Eval(row Row) (value.Value, error) {
	args := make([]value.Value, len(f.Args))
	for i, a := range f.Args {
		v, err := a.Eval(row)
		if err != nil {
			return value.Null, err
		}
		args[i] = v
	}
	return callScalar(strings.ToLower(f.Name), args)
}

// String renders the call.
func (f *FuncCall) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return f.Name + "(" + strings.Join(parts, ", ") + ")"
}

func callScalar(name string, args []value.Value) (value.Value, error) {
	argc := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("expr: %s expects %d arguments, got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
	case "abs":
		if err := argc(1); err != nil {
			return value.Null, err
		}
		v := args[0]
		if v.IsNull() {
			return value.Null, nil
		}
		switch v.Kind() {
		case value.KindInt:
			i := v.Int()
			if i < 0 {
				i = -i
			}
			return value.NewInt(i), nil
		case value.KindFloat:
			return value.NewFloat(math.Abs(v.Float())), nil
		}
		return value.Null, fmt.Errorf("expr: abs on %s", v.Kind())
	case "coalesce":
		if len(args) == 0 {
			return value.Null, fmt.Errorf("expr: coalesce needs arguments")
		}
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return value.Null, nil
	case "nullif":
		if err := argc(2); err != nil {
			return value.Null, err
		}
		eq := value.SQLEqual(args[0], args[1])
		if !eq.IsNull() && eq.Bool() {
			return value.Null, nil
		}
		return args[0], nil
	case "round":
		if len(args) != 1 && len(args) != 2 {
			return value.Null, fmt.Errorf("expr: round expects 1 or 2 arguments")
		}
		if args[0].IsNull() {
			return value.Null, nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return value.Null, fmt.Errorf("expr: round on %s", args[0].Kind())
		}
		digits := int64(0)
		if len(args) == 2 {
			if args[1].IsNull() {
				return value.Null, nil
			}
			d, ok := args[1].AsInt()
			if !ok {
				return value.Null, fmt.Errorf("expr: round digits must be numeric")
			}
			digits = d
		}
		scale := math.Pow(10, float64(digits))
		return value.NewFloat(math.Round(f*scale) / scale), nil
	case "floor", "ceiling", "ceil", "sqrt":
		if err := argc(1); err != nil {
			return value.Null, err
		}
		if args[0].IsNull() {
			return value.Null, nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return value.Null, fmt.Errorf("expr: %s on %s", name, args[0].Kind())
		}
		switch name {
		case "floor":
			return value.NewFloat(math.Floor(f)), nil
		case "sqrt":
			if f < 0 {
				return value.Null, nil
			}
			return value.NewFloat(math.Sqrt(f)), nil
		default:
			return value.NewFloat(math.Ceil(f)), nil
		}
	case "mod":
		if err := argc(2); err != nil {
			return value.Null, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return value.Null, nil
		}
		a, aok := args[0].AsInt()
		b, bok := args[1].AsInt()
		if !aok || !bok {
			return value.Null, fmt.Errorf("expr: mod needs numeric arguments")
		}
		if b == 0 {
			return value.Null, nil
		}
		return value.NewInt(a % b), nil
	case "least", "greatest":
		if len(args) == 0 {
			return value.Null, fmt.Errorf("expr: %s needs arguments", name)
		}
		best := args[0]
		for _, a := range args[1:] {
			if a.IsNull() || best.IsNull() {
				return value.Null, nil
			}
			c := value.Compare(a, best)
			if (name == "least" && c < 0) || (name == "greatest" && c > 0) {
				best = a
			}
		}
		return best, nil
	default:
		return value.Null, fmt.Errorf("expr: unknown function %q", name)
	}
}

// OverSpec carries the window definition of an OLAP-style aggregate:
// fn(arg) OVER (PARTITION BY cols). This is the ANSI SQL/OLAP construct the
// paper benchmarks percentage aggregations against.
type OverSpec struct {
	PartitionBy []string
}

// AggFn names the supported aggregate functions. Vpct and Hpct are the
// paper's percentage aggregations; the standard five may also carry a BY
// list, which makes them the companion paper's horizontal aggregations.
type AggFn string

// Aggregate function names.
const (
	AggSum   AggFn = "sum"
	AggCount AggFn = "count"
	AggAvg   AggFn = "avg"
	AggMin   AggFn = "min"
	AggMax   AggFn = "max"
	AggVpct  AggFn = "vpct"
	AggHpct  AggFn = "hpct"
)

// AggCall is an aggregate invocation inside a select list. It is not
// evaluable per row: the engine extracts AggCalls, computes them per group,
// and substitutes SlotRefs. Percentage/horizontal calls (nonempty By) are
// handled by the query rewriter before the engine ever sees them.
type AggCall struct {
	Fn       AggFn
	Arg      Expr // nil when Star
	Star     bool // count(*)
	Distinct bool
	By       []string  // subgrouping columns: Vpct/Hpct/Hagg BY list
	Default  *Literal  // Hagg DEFAULT literal replacing NULL fills
	Over     *OverSpec // ANSI OLAP window, mutually exclusive with By

	// Span locates the whole call in the statement source; BySpans aligns
	// with By, one span per subgrouping column. Zero for programmatically
	// built calls.
	Span    diag.Span
	BySpans []diag.Span
}

// Eval always fails: aggregates are computed by the engine, not per row.
func (a *AggCall) Eval(Row) (value.Value, error) {
	return value.Null, fmt.Errorf("expr: aggregate %s evaluated outside aggregation", a)
}

// IsHorizontal reports whether the call carries a BY subgrouping list.
func (a *AggCall) IsHorizontal() bool { return len(a.By) > 0 }

// String renders the call, including BY / DEFAULT / OVER clauses.
func (a *AggCall) String() string {
	var sb strings.Builder
	sb.WriteString(string(a.Fn))
	sb.WriteString("(")
	if a.Distinct {
		sb.WriteString("DISTINCT ")
	}
	if a.Star {
		sb.WriteString("*")
	} else if a.Arg != nil {
		sb.WriteString(a.Arg.String())
	}
	if len(a.By) > 0 {
		sb.WriteString(" BY ")
		sb.WriteString(strings.Join(a.By, ", "))
	}
	if a.Default != nil {
		sb.WriteString(" DEFAULT ")
		sb.WriteString(a.Default.String())
	}
	sb.WriteString(")")
	if a.Over != nil {
		sb.WriteString(" OVER (PARTITION BY ")
		sb.WriteString(strings.Join(a.Over.PartitionBy, ", "))
		sb.WriteString(")")
	}
	return sb.String()
}
