package expr

import (
	"math/rand"
	"testing"

	"repro/internal/value"
)

// generic rebuilds e with its column references resolved and nothing else —
// no node of the result has been through Bind, so none carries a prepared
// column = constant comparison: the plain tree walk the prepared form must
// agree with.
func generic(t *testing.T, e Expr, r Resolver) Expr {
	t.Helper()
	out, err := Transform(e, func(n Expr) (Expr, error) {
		if cr, ok := n.(*ColumnRef); ok {
			idx, err := r(cr.Qualifier, cr.Name)
			return BoundCol(cr.Name, idx), err
		}
		return n, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func mustBind(t *testing.T, e Expr, names ...string) Expr {
	t.Helper()
	b, err := Bind(e, SchemaResolver(names))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func eq(l, r Expr) *BinaryOp  { return &BinaryOp{Op: "=", Left: l, Right: r} }
func and(l, r Expr) *BinaryOp { return &BinaryOp{Op: "AND", Left: l, Right: r} }
func neg(v value.Value) Expr  { return &UnaryOp{Op: "-", Operand: NewLiteral(v)} }

// TestBindEquivalence checks that a tree bound by Bind — column = constant
// comparisons prepared — agrees with the plain tree walk on randomly
// generated expressions over random rows, including NULLs, cross-kind
// equality and three-valued logic.
func TestBindEquivalence(t *testing.T) {
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
	// patterns Bind prepares plus surrounding noise.
	var randExpr func(depth int) Expr
	randExpr = func(depth int) Expr {
		if depth <= 0 {
			if rng.Intn(2) == 0 {
				return Col(names[rng.Intn(len(names))])
			}
			return NewLiteral(randVal())
		}
		switch rng.Intn(6) {
		case 0:
			return eq(Col(names[rng.Intn(len(names))]), NewLiteral(randVal()))
		case 1:
			return and(randExpr(depth-1), randExpr(depth-1))
		case 2:
			return &BinaryOp{Op: "OR", Left: randExpr(depth - 1), Right: randExpr(depth - 1)}
		case 3:
			return &IsNull{Operand: Col(names[rng.Intn(len(names))]), Negate: rng.Intn(2) == 0}
		case 4:
			return &Case{
				Whens: []When{{Cond: randExpr(depth - 1), Result: randExpr(depth - 1)}},
				Else:  randExpr(depth - 1),
			}
		default:
			return &UnaryOp{Op: "NOT", Operand: randExpr(depth - 1)}
		}
	}

	for trial := 0; trial < 500; trial++ {
		raw := randExpr(3)
		plain := generic(t, raw, SchemaResolver(names))
		bound := mustBind(t, raw, names...)
		for r := 0; r < 8; r++ {
			row := make([]value.Value, len(names))
			for i := range row {
				row[i] = randVal()
			}
			rv := valuesRow(row)
			gv, gerr := plain.Eval(rv)
			fv, ferr := bound.Eval(rv)
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

// TestBindPreservesText checks that what Bind prepares renders the SQL it was
// written as — the planner's dedup-by-text relies on it — and that it really
// was prepared: an error-free predicate, which is what vectorizes a filter
// and dispatches a CASE arm.
func TestBindPreservesText(t *testing.T) {
	five, x := NewLiteral(value.NewInt(5)), NewLiteral(value.NewString("x"))
	for want, e := range map[string]Expr{
		"(d1 = 5)":                  eq(Col("d1"), five),
		"((d1 = 5) AND (d2 = 'x'))": and(eq(Col("d1"), five), eq(Col("d2"), x)),
		"(d1 IS NULL)":              &IsNull{Operand: Col("d1")},
		"(d2 IS NOT NULL)":          &IsNull{Operand: Col("d2"), Negate: true},
	} {
		b := mustBind(t, e, "d1", "d2")
		if b.String() != want {
			t.Errorf("bound text = %q, want %q", b.String(), want)
		}
		if !ErrFree(b) {
			t.Errorf("%s: not error-free after Bind", want)
		}
		if ErrFree(e) {
			t.Errorf("%s: error-free before Bind", want)
		}
	}
	for _, e := range []Expr{
		eq(Col("d1"), Col("d2")),
		&BinaryOp{Op: "<", Left: Col("d1"), Right: five},
		&BinaryOp{Op: "OR", Left: eq(Col("d1"), five), Right: eq(Col("d2"), x)},
		&IsNull{Operand: &UnaryOp{Op: "-", Operand: Col("d1")}},
	} {
		if b := mustBind(t, e, "d1", "d2"); ErrFree(b) {
			t.Errorf("%s: reported error-free", b)
		}
	}
}

// TestBindEqConstReversed checks literal = column is prepared too.
func TestBindEqConstReversed(t *testing.T) {
	b := mustBind(t, eq(NewLiteral(value.NewInt(3)), Col("a")), "a")
	if col, val, ok := b.(*BinaryOp).ColumnConst(); !ok || col != 0 || val.Int() != 3 {
		t.Fatalf("ColumnConst = %d, %v, %v", col, val, ok)
	}
	v, err := b.Eval(valuesRow{value.NewInt(3)})
	if err != nil || !v.Bool() {
		t.Errorf("3 = a with a=3: %v %v", v, err)
	}
}

// TestAndShortCircuit verifies the early exit on a definitely-false left side
// does not change 3VL results even when the right side would be NULL — nor
// the results it must not touch: a NULL left still needs the right side.
func TestAndShortCircuit(t *testing.T) {
	a1 := eq(Col("a"), NewLiteral(value.NewInt(1)))
	for _, tc := range []struct {
		e    Expr
		row  valuesRow
		want value.Value
	}{
		// a=2 (false) AND b IS NULL → false regardless of b.
		{and(a1, &IsNull{Operand: Col("b")}), valuesRow{value.NewInt(2), value.Null}, value.NewBool(false)},
		// a=NULL (unknown) AND false → false.
		{and(a1, NewLiteral(value.NewBool(false))), valuesRow{value.Null, value.Null}, value.NewBool(false)},
		// a=NULL AND true → NULL.
		{and(a1, NewLiteral(value.NewBool(true))), valuesRow{value.Null, value.Null}, value.Null},
		// false AND <error> → false: the right side is not evaluated.
		{and(a1, &BinaryOp{Op: "+", Left: Col("b"), Right: NewLiteral(value.NewInt(1))}), valuesRow{value.NewInt(2), value.NewString("x")}, value.NewBool(false)},
	} {
		v, err := mustBind(t, tc.e, "a", "b").Eval(tc.row)
		if err != nil || v.IsNull() != tc.want.IsNull() || !v.IsNull() && v.Bool() != tc.want.Bool() {
			t.Errorf("%s on %v = %v, %v; want %v", tc.e, tc.row, v, err, tc.want)
		}
	}
}

// TestBindNegativeConstant pins the fold of -<numeric literal>: the parser
// reads `d = -3` as d = (-(3)), which must still be prepared as column =
// constant — error-free, so a WHERE on it vectorizes and a CASE arm on it
// dispatches — holding the negated value and rendering the text it was
// written with. A negated non-numeric literal is left to fail at Eval.
func TestBindNegativeConstant(t *testing.T) {
	three, half := value.NewInt(3), value.NewFloat(2.5)
	for _, tc := range []struct {
		e    Expr
		want value.Value
	}{
		{eq(Col("d"), neg(three)), value.NewInt(-3)},
		{eq(neg(three), Col("d")), value.NewInt(-3)},
		{eq(Col("d"), neg(half)), value.NewFloat(-2.5)},
	} {
		plain := generic(t, tc.e, SchemaResolver([]string{"d"}))
		b := mustBind(t, tc.e, "d")
		_, val, ok := b.(*BinaryOp).ColumnConst()
		if !ok || !ErrFree(b) {
			t.Fatalf("%s: not prepared as an error-free column = constant", tc.e)
		}
		if val.Kind() != tc.want.Kind() || value.Compare(val, tc.want) != 0 {
			t.Errorf("%s: constant = %v (%v), want %v", tc.e, val, val.Kind(), tc.want)
		}
		if b.String() != tc.e.String() {
			t.Errorf("%s: text %q", tc.e, b.String())
		}
		for _, cell := range []value.Value{value.NewInt(-3), value.NewInt(3), value.NewFloat(-2.5), value.Null} {
			want, _ := plain.Eval(valuesRow{cell})
			got, err := b.Eval(valuesRow{cell})
			if err != nil || got.IsNull() != want.IsNull() || !got.IsNull() && got.Bool() != want.Bool() {
				t.Errorf("%s at d=%v: %v, %v; plain %v", tc.e, cell, got, err, want)
			}
		}
	}
	b := mustBind(t, eq(Col("d"), neg(value.NewString("x"))), "d")
	if _, _, ok := b.(*BinaryOp).ColumnConst(); ok {
		t.Error("d = -'x' prepared as a constant compare")
	}
}

// TestBindGuardedDivision pins what Bind recognises as the guarded division —
// CASE WHEN d <> 0 THEN n / d [ELSE NULL] END over bound columns, the text
// unchanged — and what it must leave to the tree walk.
func TestBindGuardedDivision(t *testing.T) {
	zero, null := NewLiteral(value.NewInt(0)), NewLiteral(value.Null)
	ne := func(l, r Expr) Expr { return &BinaryOp{Op: "<>", Left: l, Right: r} }
	div := func(l, r Expr) Expr { return &BinaryOp{Op: "/", Left: l, Right: r} }
	guarded := func(cond, then, els Expr) *Case { return &Case{Whens: []When{{Cond: cond, Result: then}}, Else: els} }
	for _, e := range []*Case{
		guarded(ne(Col("d"), zero), div(Col("n"), Col("d")), null),
		guarded(ne(Col("d"), zero), div(Col("n"), Col("d")), nil),
		guarded(ne(QCol("t", "d"), zero), div(Col("d"), QCol("t", "d")), null),
	} {
		b := mustBind(t, e, "n", "d").(*Case)
		num, den, ok := b.GuardedDiv()
		if wantNum := b.Whens[0].Result.(*BinaryOp).Left.(*ColumnRef).Index; !ok || den != 1 || num != wantNum {
			t.Errorf("%s: GuardedDiv = %d, %d, %v", e, num, den, ok)
		}
		if b.String() != e.String() {
			t.Errorf("%s: text %q", e, b.String())
		}
	}
	for _, e := range []*Case{
		guarded(ne(Col("d"), zero), div(Col("n"), Col("n")), null),                                               // divides by another column
		guarded(ne(Col("d"), NewLiteral(value.NewInt(1))), div(Col("n"), Col("d")), null),                        // guards against 1
		guarded(ne(Col("d"), NewLiteral(value.NewFloat(0))), div(Col("n"), Col("d")), null),                      // a REAL zero: left to Eval
		guarded(ne(Col("d"), zero), div(Col("n"), Col("d")), zero),                                               // ELSE 0
		guarded(eq(Col("d"), zero), div(Col("n"), Col("d")), null),                                               // = 0
		guarded(ne(Col("d"), zero), div(neg(value.NewInt(1)), Col("d")), null),                                   // a computed numerator
		{Whens: []When{{Cond: ne(Col("d"), zero), Result: div(Col("n"), Col("d"))}, {Cond: zero, Result: zero}}}, // two arms
	} {
		if _, _, ok := mustBind(t, e, "n", "d").(*Case).GuardedDiv(); ok {
			t.Errorf("%s: prepared as a guarded division", e)
		}
	}
}
