// Package expr implements scalar SQL expressions: column references,
// literals, arithmetic, comparisons, three-valued boolean logic, CASE, a
// small scalar-function library, and aggregate-call nodes. The SQL parser
// builds expression trees with unresolved column references; the engine
// binds them against a schema (resolving names to positions) before
// evaluation, so per-row evaluation involves no name lookups.
package expr

import (
	"fmt"
	"strings"

	"repro/internal/value"
)

// Row supplies column values to a bound expression by position.
type Row interface {
	ColumnValue(i int) value.Value
}

// valuesRow adapts a value slice to the Row interface.
type valuesRow []value.Value

// ColumnValue returns the i-th value.
func (r valuesRow) ColumnValue(i int) value.Value { return r[i] }

// Expr is a scalar SQL expression.
type Expr interface {
	// Eval evaluates the expression against a row. Unbound column
	// references and aggregate calls report errors.
	Eval(row Row) (value.Value, error)
	// String renders the expression as SQL text.
	String() string
}

// Resolver maps a (qualifier, column) name pair to a column position.
// qualifier is empty for unqualified references.
type Resolver func(qualifier, name string) (int, error)

// SchemaResolver builds a Resolver over an ordered column-name list,
// matching case-insensitively and ignoring qualifiers (single-table scope).
func SchemaResolver(names []string) Resolver {
	return func(_, name string) (int, error) {
		for i, n := range names {
			if strings.EqualFold(n, name) {
				return i, nil
			}
		}
		return 0, fmt.Errorf("expr: unknown column %q", name)
	}
}

// Bind is the one binder-time pass: it resolves every column reference in e
// using r and prepares each node it rebuilds (Rebind), returning a new tree.
// Aggregate calls are left in place (the engine extracts them first); Bind
// inside an aggregate argument is performed by the engine against the input
// schema.
func Bind(e Expr, r Resolver) (Expr, error) {
	return Rebind(e, func(n Expr) (Expr, error) {
		if n, ok := n.(*ColumnRef); ok {
			idx, err := r(n.Qualifier, n.Name)
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Qualifier: n.Qualifier, Name: n.Name, Index: idx, bound: true}, nil
		}
		return n, nil
	})
}

// Rebind is Transform that prepares each node it rebuilds, its operands
// already rewritten by f: a column = constant comparison (BinaryOp.ColumnConst)
// and a guarded division (Case.GuardedDiv). Bind rebinds a tree over its input
// columns, and the engine rebinds a grouped select's items over the fold's
// group slots with it, so both find the same nodes.
func Rebind(e Expr, f func(Expr) (Expr, error)) (Expr, error) {
	return Transform(e, func(n Expr) (Expr, error) {
		out, err := f(n)
		if err != nil || out != n {
			return out, err
		}
		switch n := n.(type) {
		case *BinaryOp:
			n.prepare() // n is Transform's fresh copy, its operands already rewritten
		case *Case:
			n.prepare()
		}
		return n, nil
	})
}

// Transform rewrites the tree bottom-up: children first, then f on the
// rebuilt node. f returning the node unchanged keeps the original.
// Aggregate calls are leaves: f receives the original *AggCall node (so
// pointer-keyed slot maps work) and Transform does not descend into its
// argument — aggregate arguments are a separate binding scope that the
// engine resolves against the aggregation input.
func Transform(e Expr, f func(Expr) (Expr, error)) (Expr, error) {
	switch n := e.(type) {
	case *Literal, *ColumnRef, *SlotRef, *AggCall:
		return f(e)
	case *BinaryOp:
		l, err := Transform(n.Left, f)
		if err != nil {
			return nil, err
		}
		r, err := Transform(n.Right, f)
		if err != nil {
			return nil, err
		}
		return f(&BinaryOp{Op: n.Op, Left: l, Right: r})
	case *UnaryOp:
		x, err := Transform(n.Operand, f)
		if err != nil {
			return nil, err
		}
		return f(&UnaryOp{Op: n.Op, Operand: x})
	case *IsNull:
		x, err := Transform(n.Operand, f)
		if err != nil {
			return nil, err
		}
		return f(&IsNull{Operand: x, Negate: n.Negate})
	case *Case:
		out := &Case{}
		for _, w := range n.Whens {
			c, err := Transform(w.Cond, f)
			if err != nil {
				return nil, err
			}
			r, err := Transform(w.Result, f)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, When{Cond: c, Result: r})
		}
		if n.Else != nil {
			e2, err := Transform(n.Else, f)
			if err != nil {
				return nil, err
			}
			out.Else = e2
		}
		return f(out)
	case *FuncCall:
		out := &FuncCall{Name: n.Name}
		for _, a := range n.Args {
			a2, err := Transform(a, f)
			if err != nil {
				return nil, err
			}
			out.Args = append(out.Args, a2)
		}
		return f(out)
	case *InList:
		out := &InList{Negate: n.Negate}
		x, err := Transform(n.Operand, f)
		if err != nil {
			return nil, err
		}
		out.Operand = x
		for _, e2 := range n.List {
			t, err := Transform(e2, f)
			if err != nil {
				return nil, err
			}
			out.List = append(out.List, t)
		}
		return f(out)
	case *Between:
		x, err := Transform(n.Operand, f)
		if err != nil {
			return nil, err
		}
		lo, err := Transform(n.Lo, f)
		if err != nil {
			return nil, err
		}
		hi, err := Transform(n.Hi, f)
		if err != nil {
			return nil, err
		}
		return f(&Between{Operand: x, Lo: lo, Hi: hi, Negate: n.Negate})
	case *Like:
		x, err := Transform(n.Operand, f)
		if err != nil {
			return nil, err
		}
		pat, err := Transform(n.Pattern, f)
		if err != nil {
			return nil, err
		}
		return f(&Like{Operand: x, Pattern: pat, Negate: n.Negate})
	default:
		return nil, fmt.Errorf("expr: Transform: unknown node %T", e)
	}
}

// Walk visits every node in the tree, parents before children. Returning an
// error stops the walk.
func Walk(e Expr, f func(Expr) error) error {
	if err := f(e); err != nil {
		return err
	}
	switch n := e.(type) {
	case *BinaryOp:
		if err := Walk(n.Left, f); err != nil {
			return err
		}
		return Walk(n.Right, f)
	case *UnaryOp:
		return Walk(n.Operand, f)
	case *IsNull:
		return Walk(n.Operand, f)
	case *Case:
		for _, w := range n.Whens {
			if err := Walk(w.Cond, f); err != nil {
				return err
			}
			if err := Walk(w.Result, f); err != nil {
				return err
			}
		}
		if n.Else != nil {
			return Walk(n.Else, f)
		}
	case *FuncCall:
		for _, a := range n.Args {
			if err := Walk(a, f); err != nil {
				return err
			}
		}
	case *InList:
		if err := Walk(n.Operand, f); err != nil {
			return err
		}
		for _, e2 := range n.List {
			if err := Walk(e2, f); err != nil {
				return err
			}
		}
	case *Between:
		if err := Walk(n.Operand, f); err != nil {
			return err
		}
		if err := Walk(n.Lo, f); err != nil {
			return err
		}
		return Walk(n.Hi, f)
	case *Like:
		if err := Walk(n.Operand, f); err != nil {
			return err
		}
		return Walk(n.Pattern, f)
	case *AggCall:
		if n.Arg != nil {
			return Walk(n.Arg, f)
		}
	}
	return nil
}

// HasAggregate reports whether the tree contains an aggregate call.
func HasAggregate(e Expr) bool {
	found := false
	_ = Walk(e, func(n Expr) error {
		if _, ok := n.(*AggCall); ok {
			found = true
		}
		return nil
	})
	return found
}

// Columns returns the distinct column names referenced by e (nil: none), in
// first-appearance order.
func Columns(e Expr) []string {
	var out []string
	if e == nil {
		return nil
	}
	seen := make(map[string]bool)
	_ = Walk(e, func(n Expr) error {
		if cr, ok := n.(*ColumnRef); ok {
			key := strings.ToLower(cr.Name)
			if !seen[key] {
				seen[key] = true
				out = append(out, cr.Name)
			}
		}
		return nil
	})
	return out
}
