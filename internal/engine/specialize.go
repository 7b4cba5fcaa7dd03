package engine

import (
	"repro/internal/expr"
	"repro/internal/value"
)

// Expression specialization: after binding, common sub-patterns are
// replaced with direct evaluators that skip the generic tree-walk dispatch.
// The horizontal strategies evaluate N CASE terms per input row, each a
// conjunction of column=constant tests; on the generic evaluator every test
// pays operand boxing and a string-keyed operator switch. Real engines
// compile these; this pass is the interpreter's equivalent.
//
// Specialization preserves semantics exactly (including three-valued logic
// and the NULL-on-zero division rule) and leaves any node it does not
// recognize untouched. Plain column references are never rewritten, so
// structural inspection of bound trees (group-key matching) still works.

// specialize rewrites a bound expression tree bottom-up.
func specialize(e expr.Expr) expr.Expr {
	switch n := e.(type) {
	case *expr.BinaryOp:
		l := specialize(n.Left)
		r := specialize(n.Right)
		if n.Op == "=" {
			if eq := tryEqConst(l, r); eq != nil {
				return eq
			}
		}
		if n.Op == "AND" {
			return &andFast{left: l, right: r, text: n.String()}
		}
		if l != n.Left || r != n.Right {
			return &expr.BinaryOp{Op: n.Op, Left: l, Right: r}
		}
		return n
	case *expr.UnaryOp:
		x := specialize(n.Operand)
		if x != n.Operand {
			return &expr.UnaryOp{Op: n.Op, Operand: x}
		}
		return n
	case *expr.IsNull:
		if c, ok := n.Operand.(*expr.ColumnRef); ok && c.Bound() {
			return &isNullFast{idx: c.Index, negate: n.Negate, text: n.String()}
		}
		x := specialize(n.Operand)
		if x != n.Operand {
			return &expr.IsNull{Operand: x, Negate: n.Negate}
		}
		return n
	case *expr.Case:
		out := &expr.Case{}
		for _, w := range n.Whens {
			out.Whens = append(out.Whens, expr.When{
				Cond:   specialize(w.Cond),
				Result: specialize(w.Result),
			})
		}
		if n.Else != nil {
			out.Else = specialize(n.Else)
		}
		return out
	case *expr.FuncCall:
		out := &expr.FuncCall{Name: n.Name}
		for _, a := range n.Args {
			out.Args = append(out.Args, specialize(a))
		}
		return out
	case *expr.InList:
		out := &expr.InList{Operand: specialize(n.Operand), Negate: n.Negate}
		for _, e2 := range n.List {
			out.List = append(out.List, specialize(e2))
		}
		return out
	case *expr.Between:
		return &expr.Between{Operand: specialize(n.Operand),
			Lo: specialize(n.Lo), Hi: specialize(n.Hi), Negate: n.Negate}
	case *expr.Like:
		return &expr.Like{Operand: specialize(n.Operand),
			Pattern: specialize(n.Pattern), Negate: n.Negate}
	default:
		return e
	}
}

// tryEqConst recognizes bound-column = constant (either side) and returns a
// direct evaluator, or nil.
func tryEqConst(l, r expr.Expr) expr.Expr {
	text := "(" + l.String() + " = " + r.String() + ")"
	if c, ok := l.(*expr.ColumnRef); ok && c.Bound() {
		if v, ok := constValue(r); ok {
			return &eqConstFast{idx: c.Index, val: v, text: text}
		}
	}
	if c, ok := r.(*expr.ColumnRef); ok && c.Bound() {
		if v, ok := constValue(l); ok {
			return &eqConstFast{idx: c.Index, val: v, text: text}
		}
	}
	return nil
}

// constValue folds e to its constant when e is a literal or the negation of a
// numeric one: the parser reads -3 as the unary minus of 3, and without the
// fold a negative constant would miss every fast path a positive one takes.
// The node itself is left in the tree, so rendered text does not change.
func constValue(e expr.Expr) (value.Value, bool) {
	switch n := e.(type) {
	case *expr.Literal:
		return n.Val, true
	case *expr.UnaryOp:
		if lit, ok := n.Operand.(*expr.Literal); ok && n.Op == "-" && lit.Val.IsNumeric() {
			v, err := value.Neg(lit.Val)
			return v, err == nil
		}
	}
	return value.Null, false
}

// eqConstFast evaluates column = constant with SQL NULL semantics.
type eqConstFast struct {
	idx  int
	val  value.Value
	text string
}

// Eval compares the column against the constant under SQL equality.
func (e *eqConstFast) Eval(row expr.Row) (value.Value, error) {
	return value.SQLEqual(row.ColumnValue(e.idx), e.val), nil
}

// String renders the original SQL text.
func (e *eqConstFast) String() string { return e.text }

// andFast is AND with three-valued logic and an early exit on definite
// false from the left operand.
type andFast struct {
	left, right expr.Expr
	text        string
}

// Eval applies 3VL AND, short-circuiting a definitely-false left side
// (legal because expression evaluation is side-effect free and error-free
// evaluation of the right side cannot change a FALSE outcome).
func (a *andFast) Eval(row expr.Row) (value.Value, error) {
	l, err := a.left.Eval(row)
	if err != nil {
		return value.Null, err
	}
	if !l.IsNull() && !l.Truthy() {
		return value.NewBool(false), nil
	}
	r, err := a.right.Eval(row)
	if err != nil {
		return value.Null, err
	}
	return value.And(l, r), nil
}

// String renders the original SQL text.
func (a *andFast) String() string { return a.text }

// isNullFast evaluates column IS [NOT] NULL.
type isNullFast struct {
	idx    int
	negate bool
	text   string
}

// Eval tests nullness directly.
func (i *isNullFast) Eval(row expr.Row) (value.Value, error) {
	return value.NewBool(row.ColumnValue(i.idx).IsNull() != i.negate), nil
}

// String renders the original SQL text.
func (i *isNullFast) String() string { return i.text }
