package expr

import (
	"strings"
	"testing"

	"repro/internal/value"
)

// evalOn binds e against names and evaluates it on vals.
func evalOn(t *testing.T, e Expr, names []string, vals ...value.Value) value.Value {
	t.Helper()
	b, err := Bind(e, SchemaResolver(names))
	if err != nil {
		t.Fatalf("Bind(%s): %v", e, err)
	}
	v, err := b.Eval(valuesRow(vals))
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return v
}

func TestLiteralAndString(t *testing.T) {
	l := NewLiteral(value.NewString("o'brien"))
	v, err := l.Eval(nil)
	if err != nil || v.Str() != "o'brien" {
		t.Fatalf("literal eval: %v %v", v, err)
	}
	if l.String() != "'o''brien'" {
		t.Errorf("literal SQL = %q", l.String())
	}
	if NewLiteral(value.NewInt(5)).String() != "5" {
		t.Error("int literal rendering")
	}
	if NewLiteral(value.Null).String() != "NULL" {
		t.Error("null literal rendering")
	}
}

func TestColumnBindingAndEval(t *testing.T) {
	e := Col("b")
	if _, err := e.Eval(valuesRow{value.NewInt(1)}); err == nil {
		t.Error("unbound column must not evaluate")
	}
	got := evalOn(t, e, []string{"a", "b"}, value.NewInt(1), value.NewInt(2))
	if got.Int() != 2 {
		t.Errorf("b = %v", got)
	}
	if _, err := Bind(Col("zz"), SchemaResolver([]string{"a"})); err == nil {
		t.Error("binding unknown column must fail")
	}
	q := QCol("t", "a")
	if q.String() != "t.a" {
		t.Errorf("qualified name = %q", q.String())
	}
	bc := BoundCol("x", 0)
	if !bc.Bound() {
		t.Error("BoundCol must be bound")
	}
}

func TestArithmeticExpr(t *testing.T) {
	// (a + 2) * b
	e := &BinaryOp{Op: "*",
		Left:  &BinaryOp{Op: "+", Left: Col("a"), Right: NewLiteral(value.NewInt(2))},
		Right: Col("b")}
	got := evalOn(t, e, []string{"a", "b"}, value.NewInt(3), value.NewInt(4))
	if got.Int() != 20 {
		t.Errorf("(3+2)*4 = %v", got)
	}
	if e.String() != "((a + 2) * b)" {
		t.Errorf("String = %q", e.String())
	}
}

func TestDivisionByZeroIsNull(t *testing.T) {
	e := &BinaryOp{Op: "/", Left: Col("a"), Right: Col("b")}
	got := evalOn(t, e, []string{"a", "b"}, value.NewInt(1), value.NewInt(0))
	if !got.IsNull() {
		t.Errorf("1/0 = %v, want NULL", got)
	}
}

func TestComparisonAndLogic(t *testing.T) {
	// a < 5 AND NOT (b = 'x')
	e := &BinaryOp{Op: "AND",
		Left:  &BinaryOp{Op: "<", Left: Col("a"), Right: NewLiteral(value.NewInt(5))},
		Right: &UnaryOp{Op: "NOT", Operand: &BinaryOp{Op: "=", Left: Col("b"), Right: NewLiteral(value.NewString("x"))}}}
	got := evalOn(t, e, []string{"a", "b"}, value.NewInt(3), value.NewString("y"))
	if !got.Bool() {
		t.Errorf("3<5 AND NOT y=x = %v", got)
	}
	got = evalOn(t, e, []string{"a", "b"}, value.NewInt(3), value.Null)
	if !got.IsNull() {
		t.Errorf("NULL comparison under AND = %v, want NULL", got)
	}
}

func TestUnaryMinus(t *testing.T) {
	e := &UnaryOp{Op: "-", Operand: Col("a")}
	if got := evalOn(t, e, []string{"a"}, value.NewInt(5)); got.Int() != -5 {
		t.Errorf("-5 = %v", got)
	}
	if e.String() != "(-a)" {
		t.Errorf("String = %q", e.String())
	}
}

func TestIsNullPredicate(t *testing.T) {
	e := &IsNull{Operand: Col("a")}
	if got := evalOn(t, e, []string{"a"}, value.Null); !got.Bool() {
		t.Error("NULL IS NULL must be true")
	}
	if got := evalOn(t, e, []string{"a"}, value.NewInt(0)); got.Bool() {
		t.Error("0 IS NULL must be false")
	}
	n := &IsNull{Operand: Col("a"), Negate: true}
	if got := evalOn(t, n, []string{"a"}, value.NewInt(0)); !got.Bool() {
		t.Error("0 IS NOT NULL must be true")
	}
	if !strings.Contains(n.String(), "IS NOT NULL") {
		t.Errorf("String = %q", n.String())
	}
}

func TestCaseExpr(t *testing.T) {
	// CASE WHEN d = 'Mo' THEN a WHEN d = 'Tu' THEN 0 ELSE -1 END
	c := &Case{
		Whens: []When{
			{Cond: &BinaryOp{Op: "=", Left: Col("d"), Right: NewLiteral(value.NewString("Mo"))}, Result: Col("a")},
			{Cond: &BinaryOp{Op: "=", Left: Col("d"), Right: NewLiteral(value.NewString("Tu"))}, Result: NewLiteral(value.NewInt(0))},
		},
		Else: NewLiteral(value.NewInt(-1)),
	}
	names := []string{"d", "a"}
	if got := evalOn(t, c, names, value.NewString("Mo"), value.NewInt(9)); got.Int() != 9 {
		t.Errorf("Mo arm = %v", got)
	}
	if got := evalOn(t, c, names, value.NewString("Tu"), value.NewInt(9)); got.Int() != 0 {
		t.Errorf("Tu arm = %v", got)
	}
	if got := evalOn(t, c, names, value.NewString("We"), value.NewInt(9)); got.Int() != -1 {
		t.Errorf("else arm = %v", got)
	}
	// NULL condition does not match (UNKNOWN is not truthy).
	if got := evalOn(t, c, names, value.Null, value.NewInt(9)); got.Int() != -1 {
		t.Errorf("null cond arm = %v", got)
	}
	s := c.String()
	if !strings.HasPrefix(s, "CASE WHEN") || !strings.HasSuffix(s, "END") {
		t.Errorf("String = %q", s)
	}
}

func TestCaseWithoutElseYieldsNull(t *testing.T) {
	c := &Case{Whens: []When{{Cond: NewLiteral(value.NewBool(false)), Result: NewLiteral(value.NewInt(1))}}}
	v, err := c.Eval(nil)
	if err != nil || !v.IsNull() {
		t.Errorf("CASE without ELSE = %v, %v", v, err)
	}
}

func TestScalarFunctions(t *testing.T) {
	call := func(name string, args ...Expr) Value2 {
		return Value2{t, &FuncCall{Name: name, Args: args}}
	}
	lit := func(v value.Value) Expr { return NewLiteral(v) }
	i, f, s := value.NewInt, value.NewFloat, value.NewString

	call("abs", lit(i(-4))).want(i(4))
	call("abs", lit(f(-2.5))).want(f(2.5))
	call("abs", lit(value.Null)).want(value.Null)
	call("coalesce", lit(value.Null), lit(i(7)), lit(i(8))).want(i(7))
	call("coalesce", lit(value.Null), lit(value.Null)).want(value.Null)
	call("nullif", lit(i(3)), lit(i(3))).want(value.Null)
	call("nullif", lit(i(3)), lit(i(4))).want(i(3))
	call("round", lit(f(2.567)), lit(i(2))).want(f(2.57))
	call("round", lit(f(2.5))).want(f(3))
	call("floor", lit(f(2.9))).want(f(2))
	call("ceiling", lit(f(2.1))).want(f(3))
	call("sqrt", lit(f(9))).want(f(3))
	call("sqrt", lit(f(-1))).want(value.Null)
	call("mod", lit(i(7)), lit(i(3))).want(i(1))
	call("mod", lit(i(7)), lit(i(0))).want(value.Null)
	call("least", lit(i(3)), lit(i(1)), lit(i(2))).want(i(1))
	call("greatest", lit(i(3)), lit(i(1))).want(i(3))
	call("greatest", lit(i(3)), lit(value.Null)).want(value.Null)

	// Errors.
	for _, bad := range []*FuncCall{
		{Name: "nosuch", Args: []Expr{lit(i(1))}},
		{Name: "abs", Args: []Expr{lit(s("x"))}},
		{Name: "abs", Args: []Expr{lit(i(1)), lit(i(2))}},
		{Name: "coalesce"},
		{Name: "mod", Args: []Expr{lit(s("a")), lit(i(2))}},
	} {
		if _, err := bad.Eval(nil); err == nil {
			t.Errorf("%s must fail", bad)
		}
	}
	if got := (&FuncCall{Name: "coalesce", Args: []Expr{Col("a"), NewLiteral(i(0))}}).String(); got != "coalesce(a, 0)" {
		t.Errorf("FuncCall.String = %q", got)
	}
}

// Value2 is a tiny helper for fluent scalar-function assertions.
type Value2 struct {
	t *testing.T
	e Expr
}

func (v Value2) want(w value.Value) {
	v.t.Helper()
	got, err := v.e.Eval(nil)
	if err != nil {
		v.t.Fatalf("%s: %v", v.e, err)
	}
	if got.Kind() != w.Kind() || value.Compare(got, w) != 0 {
		v.t.Errorf("%s = %v (%v), want %v (%v)", v.e, got, got.Kind(), w, w.Kind())
	}
}

func TestAggCallRefusesRowEval(t *testing.T) {
	a := &AggCall{Fn: AggSum, Arg: Col("x")}
	if _, err := a.Eval(nil); err == nil {
		t.Error("AggCall.Eval must fail")
	}
}

func TestAggCallString(t *testing.T) {
	cases := []struct {
		a    *AggCall
		want string
	}{
		{&AggCall{Fn: AggSum, Arg: Col("a")}, "sum(a)"},
		{&AggCall{Fn: AggCount, Star: true}, "count(*)"},
		{&AggCall{Fn: AggCount, Distinct: true, Arg: Col("tid")}, "count(DISTINCT tid)"},
		{&AggCall{Fn: AggVpct, Arg: Col("a"), By: []string{"city"}}, "vpct(a BY city)"},
		{&AggCall{Fn: AggHpct, Arg: Col("a"), By: []string{"d1", "d2"}}, "hpct(a BY d1, d2)"},
		{&AggCall{Fn: AggMax, Arg: NewLiteral(value.NewInt(1)), By: []string{"dept"},
			Default: NewLiteral(value.NewInt(0))}, "max(1 BY dept DEFAULT 0)"},
		{&AggCall{Fn: AggSum, Arg: Col("a"), Over: &OverSpec{PartitionBy: []string{"s", "c"}}},
			"sum(a) OVER (PARTITION BY s, c)"},
	}
	for _, c := range cases {
		if got := c.a.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
	if !(&AggCall{Fn: AggSum, By: []string{"x"}}).IsHorizontal() {
		t.Error("BY list must mark horizontal")
	}
	if (&AggCall{Fn: AggSum}).IsHorizontal() {
		t.Error("no BY list must not mark horizontal")
	}
}

func TestTransformAndWalk(t *testing.T) {
	// sum(a) + b: replace the AggCall with a SlotRef, then check Walk sees
	// the new shape.
	e := &BinaryOp{Op: "+", Left: &AggCall{Fn: AggSum, Arg: Col("a")}, Right: Col("b")}
	if !HasAggregate(e) {
		t.Fatal("HasAggregate must detect the sum")
	}
	out, err := Transform(e, func(n Expr) (Expr, error) {
		if _, ok := n.(*AggCall); ok {
			return &SlotRef{Index: 1, Label: "agg0"}, nil
		}
		return n, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if HasAggregate(out) {
		t.Error("aggregate not replaced")
	}
	v, err := Bind(out, SchemaResolver([]string{"a", "b"}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.Eval(valuesRow{value.NewInt(0), value.NewInt(5)})
	if err != nil || got.Int() != 10 { // slot 1 holds b=5, plus b=5
		t.Errorf("eval after transform = %v %v", got, err)
	}
}

func TestTransformDescendsAllNodes(t *testing.T) {
	inner := Col("x")
	e := &Case{
		Whens: []When{{Cond: &IsNull{Operand: inner}, Result: &FuncCall{Name: "abs", Args: []Expr{inner}}}},
		Else:  &UnaryOp{Op: "-", Operand: inner},
	}
	count := 0
	_, err := Transform(e, func(n Expr) (Expr, error) {
		if _, ok := n.(*ColumnRef); ok {
			count++
		}
		return n, nil
	})
	if err != nil || count != 3 {
		t.Errorf("Transform visited %d column refs, want 3 (err %v)", count, err)
	}
}

func TestColumnsHelper(t *testing.T) {
	e := &BinaryOp{Op: "+",
		Left:  &BinaryOp{Op: "*", Left: Col("a"), Right: Col("B")},
		Right: &FuncCall{Name: "abs", Args: []Expr{Col("a")}}}
	cols := Columns(e)
	if len(cols) != 2 || cols[0] != "a" || cols[1] != "B" {
		t.Errorf("Columns = %v", cols)
	}
}

func TestSlotRefString(t *testing.T) {
	if (&SlotRef{Index: 3}).String() != "$3" {
		t.Error("unlabeled SlotRef string")
	}
	if (&SlotRef{Index: 3, Label: "total"}).String() != "total" {
		t.Error("labeled SlotRef string")
	}
}
