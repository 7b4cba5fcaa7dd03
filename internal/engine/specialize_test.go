package engine

import (
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/sqlparse"
	"repro/internal/value"
)

// TestSpecializeEquivalence checks that the specialized evaluator agrees
// with the generic tree-walk on randomly generated expressions over random
// rows, including NULLs and three-valued logic.
func TestSpecializeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	names := []string{"a", "b", "c", "d"}

	randVal := func() value.Value {
		switch rng.Intn(5) {
		case 0:
			return value.Null
		case 1:
			return value.NewInt(int64(rng.Intn(3)))
		case 2:
			return value.NewFloat(float64(rng.Intn(3)))
		case 3:
			return value.NewString([]string{"x", "y", "z"}[rng.Intn(3)])
		default:
			return value.NewBool(rng.Intn(2) == 0)
		}
	}

	// randExpr builds an unbound expression of bounded depth using the
	// patterns specialization targets plus surrounding noise.
	var randExpr func(depth int) expr.Expr
	randExpr = func(depth int) expr.Expr {
		if depth <= 0 {
			if rng.Intn(2) == 0 {
				return expr.Col(names[rng.Intn(len(names))])
			}
			return expr.NewLiteral(randVal())
		}
		switch rng.Intn(6) {
		case 0:
			return &expr.BinaryOp{Op: "=", Left: expr.Col(names[rng.Intn(len(names))]),
				Right: expr.NewLiteral(randVal())}
		case 1:
			return &expr.BinaryOp{Op: "AND", Left: randExpr(depth - 1), Right: randExpr(depth - 1)}
		case 2:
			return &expr.BinaryOp{Op: "OR", Left: randExpr(depth - 1), Right: randExpr(depth - 1)}
		case 3:
			return &expr.IsNull{Operand: expr.Col(names[rng.Intn(len(names))]), Negate: rng.Intn(2) == 0}
		case 4:
			return &expr.Case{
				Whens: []expr.When{{Cond: randExpr(depth - 1), Result: randExpr(depth - 1)}},
				Else:  randExpr(depth - 1),
			}
		default:
			return &expr.UnaryOp{Op: "NOT", Operand: randExpr(depth - 1)}
		}
	}

	resolver := expr.SchemaResolver(names)
	for trial := 0; trial < 500; trial++ {
		raw := randExpr(3)
		generic, err := expr.Bind(raw, resolver)
		if err != nil {
			t.Fatal(err)
		}
		fast := specialize(generic)
		for r := 0; r < 8; r++ {
			row := make([]value.Value, len(names))
			for i := range row {
				row[i] = randVal()
			}
			rv := expr.ValuesRow(row)
			gv, gerr := generic.Eval(rv)
			fv, ferr := fast.Eval(rv)
			if (gerr == nil) != (ferr == nil) {
				t.Fatalf("expr %s row %v: errors differ: %v vs %v", raw, row, gerr, ferr)
			}
			if gerr != nil {
				continue
			}
			if gv.IsNull() != fv.IsNull() {
				t.Fatalf("expr %s row %v: %v vs %v", raw, row, gv, fv)
			}
			if !gv.IsNull() && (gv.Kind() != fv.Kind() || value.Compare(gv, fv) != 0) {
				t.Fatalf("expr %s row %v: %v (%v) vs %v (%v)", raw, row, gv, gv.Kind(), fv, fv.Kind())
			}
		}
	}
}

// TestSpecializePreservesText checks specialized nodes render the same SQL,
// which the planner's dedup-by-text relies on.
func TestSpecializePreservesText(t *testing.T) {
	names := []string{"d1", "d2"}
	resolver := expr.SchemaResolver(names)
	cases := []string{
		"(d1 = 5)",
		"((d1 = 5) AND (d2 = 'x'))",
		"(d1 IS NULL)",
		"(d2 IS NOT NULL)",
	}
	build := []expr.Expr{
		&expr.BinaryOp{Op: "=", Left: expr.Col("d1"), Right: expr.NewLiteral(value.NewInt(5))},
		&expr.BinaryOp{Op: "AND",
			Left:  &expr.BinaryOp{Op: "=", Left: expr.Col("d1"), Right: expr.NewLiteral(value.NewInt(5))},
			Right: &expr.BinaryOp{Op: "=", Left: expr.Col("d2"), Right: expr.NewLiteral(value.NewString("x"))}},
		&expr.IsNull{Operand: expr.Col("d1")},
		&expr.IsNull{Operand: expr.Col("d2"), Negate: true},
	}
	for i, e := range build {
		b, err := expr.Bind(e, resolver)
		if err != nil {
			t.Fatal(err)
		}
		s := specialize(b)
		if s.String() != cases[i] {
			t.Errorf("specialized text = %q, want %q", s.String(), cases[i])
		}
		// And the node really was specialized.
		switch s.(type) {
		case *eqConstFast, *andFast, *isNullFast:
		default:
			t.Errorf("case %d not specialized: %T", i, s)
		}
	}
}

// TestSpecializedEqConstReversed checks literal = column also specializes.
func TestSpecializedEqConstReversed(t *testing.T) {
	b, err := expr.Bind(&expr.BinaryOp{Op: "=",
		Left:  expr.NewLiteral(value.NewInt(3)),
		Right: expr.Col("a"),
	}, expr.SchemaResolver([]string{"a"}))
	if err != nil {
		t.Fatal(err)
	}
	s := specialize(b)
	if _, ok := s.(*eqConstFast); !ok {
		t.Fatalf("not specialized: %T", s)
	}
	v, err := s.Eval(expr.ValuesRow{value.NewInt(3)})
	if err != nil || !v.Bool() {
		t.Errorf("3 = a with a=3: %v %v", v, err)
	}
}

// TestAndFastShortCircuitStopsOnFalse verifies the early exit does not
// change 3VL results even when the right side would be NULL.
func TestAndFastShortCircuit(t *testing.T) {
	names := []string{"a", "b"}
	resolver := expr.SchemaResolver(names)
	e := &expr.BinaryOp{Op: "AND",
		Left:  &expr.BinaryOp{Op: "=", Left: expr.Col("a"), Right: expr.NewLiteral(value.NewInt(1))},
		Right: &expr.IsNull{Operand: expr.Col("b")},
	}
	b, _ := expr.Bind(e, resolver)
	s := specialize(b)
	// a=2 (false) AND b IS NULL → false regardless of b.
	v, err := s.Eval(expr.ValuesRow{value.NewInt(2), value.Null})
	if err != nil || v.IsNull() || v.Bool() {
		t.Errorf("false AND … = %v, %v", v, err)
	}
	// a=NULL (unknown) AND false → false.
	e2 := &expr.BinaryOp{Op: "AND",
		Left:  &expr.BinaryOp{Op: "=", Left: expr.Col("a"), Right: expr.NewLiteral(value.NewInt(1))},
		Right: expr.NewLiteral(value.NewBool(false)),
	}
	b2, _ := expr.Bind(e2, resolver)
	s2 := specialize(b2)
	v, err = s2.Eval(expr.ValuesRow{value.Null, value.Null})
	if err != nil || v.IsNull() || v.Bool() {
		t.Errorf("unknown AND false = %v, %v", v, err)
	}
	// a=NULL AND true → NULL.
	e3 := &expr.BinaryOp{Op: "AND",
		Left:  &expr.BinaryOp{Op: "=", Left: expr.Col("a"), Right: expr.NewLiteral(value.NewInt(1))},
		Right: expr.NewLiteral(value.NewBool(true)),
	}
	b3, _ := expr.Bind(e3, resolver)
	s3 := specialize(b3)
	v, err = s3.Eval(expr.ValuesRow{value.Null, value.Null})
	if err != nil || !v.IsNull() {
		t.Errorf("unknown AND true = %v, %v", v, err)
	}
}

// TestSpecializeNegativeConstant pins the fold of -<numeric literal>: the
// parser reads `d = -3` as d = (-(3)), which must still become the column =
// constant node — error-free, so a WHERE on it vectorizes and a CASE arm on it
// dispatches — holding the negated value and rendering the text it was
// written with. A negated non-numeric literal is left to fail at Eval.
func TestSpecializeNegativeConstant(t *testing.T) {
	for src, want := range map[string]value.Value{
		"d = -3":   value.NewInt(-3),
		"-3 = d":   value.NewInt(-3),
		"d = -2.5": value.NewFloat(-2.5),
	} {
		raw, err := sqlparse.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		b, err := expr.Bind(raw, expr.SchemaResolver([]string{"d"}))
		if err != nil {
			t.Fatal(err)
		}
		s := specialize(b)
		eq, ok := s.(*eqConstFast)
		if !ok {
			t.Fatalf("%s: specialized to %T, want *eqConstFast", src, s)
		}
		if !predErrFree(s) {
			t.Errorf("%s: not error-free", src)
		}
		if eq.val.Kind() != want.Kind() || value.Compare(eq.val, want) != 0 {
			t.Errorf("%s: constant = %v (%v), want %v", src, eq.val, eq.val.Kind(), want)
		}
		if s.String() != b.String() {
			t.Errorf("%s: text %q, want %q", src, s.String(), b.String())
		}
		for _, cell := range []value.Value{value.NewInt(-3), value.NewInt(3), value.NewFloat(-2.5), value.Null} {
			want, _ := b.Eval(expr.ValuesRow{cell})
			got, err := s.Eval(expr.ValuesRow{cell})
			if err != nil || got.IsNull() != want.IsNull() || !got.IsNull() && got.Bool() != want.Bool() {
				t.Errorf("%s at d=%v: %v, %v; generic %v", src, cell, got, err, want)
			}
		}
	}
	raw, _ := sqlparse.ParseExpr("d = -'x'")
	b, _ := expr.Bind(raw, expr.SchemaResolver([]string{"d"}))
	if _, ok := specialize(b).(*eqConstFast); ok {
		t.Error("d = -'x' specialized to a constant compare")
	}
}
