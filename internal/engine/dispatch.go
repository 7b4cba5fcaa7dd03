package engine

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/expr"
	"repro/internal/value"
)

// Dimension dispatch. The horizontal CASE strategies fold N aggregates whose
// arguments are CASE WHEN Dh = vh AND … AND Dk = vk THEN x [ELSE 0|NULL] END
// over one column list: the conditions are disjoint, so a row belongs to at
// most one combination, yet evaluated arm by arm it pays N comparisons. The
// paper's future work asks for an optimizer that knows this. planFold groups
// such specs into arm families — one per tested column list — and builds one
// constant-tuple → spec-indices table per family; the row loop then reads the
// family's columns once, looks the tuple up, and evaluates THEN and add only
// for the arms that matched. An arm that did not match does nothing per row:
// its ELSE is settled once per group at emit (settleElse).
//
// Recognised: a non-DISTINCT aggregate over a one-WHEN CASE whose condition
// is an error-free conjunction (expr.ErrFree) of column = literal tests, the
// literal non-NULL and of the column's own INTEGER, VARCHAR or BOOLEAN kind —
// so SQL equality coincides with equality of the key encodings — and of
// un-negated IS NULL tests, no column twice; ELSE absent or NULL under any
// aggregate, ELSE 0 under sum. Anything else (OR, IS NOT NULL, a FLOAT or
// cross-kind literal, a computed or non-zero ELSE, DISTINCT) stays an
// ordinary spec, evaluated in full on every row.

// arm is one recognised spec: the columns its condition tests in condition
// order, the constant each must equal (NULL = IS NULL), and what a matching
// row contributes.
type arm struct {
	cols     []int
	consts   []value.Value
	then     expr.Expr
	elseZero bool
}

// recognise reports whether s is a dispatchable arm over an input of schema
// sch and, if so, leaves its description in a, reusing a's slices.
func (a *arm) recognise(s aggSpec, sch relSchema) bool {
	c, ok := s.arg.(*expr.Case)
	if !ok || s.call.Distinct || len(c.Whens) != 1 {
		return false
	}
	*a = arm{cols: a.cols[:0], consts: a.consts[:0], then: c.Whens[0].Result}
	if c.Else != nil {
		v, isConst := expr.ConstValue(c.Else)
		switch {
		case !isConst:
			return false
		case v.IsNull():
		case s.call.Fn == expr.AggSum && v.Kind() == value.KindInt && v.Int() == 0:
			a.elseZero = true
		default:
			return false
		}
	}
	return a.addCond(c.Whens[0].Cond, sch)
}

// addCond appends the tests of one condition subtree, reporting whether the
// subtree has the dispatchable shape.
func (a *arm) addCond(e expr.Expr, sch relSchema) bool {
	idx, want := -1, value.Null
	switch n := e.(type) {
	case *expr.BinaryOp:
		col, val, ok := n.ColumnConst()
		if !ok {
			return n.Op == "AND" && a.addCond(n.Left, sch) && a.addCond(n.Right, sch)
		}
		if col >= len(sch) {
			return false
		}
		k := val.Kind()
		if k != sch[col].Type.Kind() || k != value.KindInt && k != value.KindString && k != value.KindBool {
			return false
		}
		idx, want = col, val
	case *expr.IsNull:
		c, ok := n.Operand.(*expr.ColumnRef)
		if !ok || !c.Bound() || n.Negate {
			return false
		}
		idx = c.Index
	default:
		return false
	}
	if slices.Contains(a.cols, idx) {
		return false
	}
	a.cols, a.consts = append(a.cols, idx), append(a.consts, want)
	return true
}

// armFamily is the dispatch table of the arms testing one column list, under
// whichever of the group table's two key encodings fits the columns: the
// fixed-width intKey when every one is an INTEGER column of the stored table
// the fold reads (≤ 4), read straight from the raw vectors; the AppendKey
// bytes of the row's column values otherwise. Either map sends a constant
// tuple to its entry: the specs, ascending, whose condition is that tuple.
// Entry 0 is the empty entry of a row no arm matches.
type armFamily struct {
	cols    []int
	arms    int
	entries [][]int32
	ints    map[intKey]int32
	colInts [][]int64
	colNull []func(row int) bool
	strs    map[string]int32
}

// planDispatch recognises the arm families among op's specs. A recognised
// spec's fold input becomes its THEN expression; the rest are op.plain.
func (op *foldOp) planDispatch(sch relSchema) {
	op.plain = make([]int32, 0, len(op.specs))
	var a arm
	for i, s := range op.specs {
		if !a.recognise(s, sch) {
			op.plain = append(op.plain, int32(i))
			op.args = append(op.args, op.input(s.arg))
			continue
		}
		op.args = append(op.args, op.input(a.then))
		if a.elseZero {
			if op.elseZero == nil {
				op.elseZero = make([]bool, len(op.specs))
			}
			op.elseZero[i] = true
		}
		fi := slices.IndexFunc(op.families, func(f *armFamily) bool { return slices.Equal(f.cols, a.cols) })
		if fi < 0 {
			fi = len(op.families)
			op.families = append(op.families, op.newFamily(slices.Clone(a.cols)))
		}
		f := op.families[fi]
		f.arms++
		var e int32
		if f.ints != nil {
			k := intKeyOf(a.consts)
			if e = f.ints[k]; e == 0 {
				e = f.newEntry()
				f.ints[k] = e
			}
		} else {
			k := value.EncodeKeyString(a.consts...)
			if e = f.strs[k]; e == 0 {
				e = f.newEntry()
				f.strs[k] = e
			}
		}
		f.entries[e] = append(f.entries[e], int32(i))
	}
}

func (f *armFamily) newEntry() int32 {
	f.entries = append(f.entries, nil)
	return int32(len(f.entries) - 1)
}

// newFamily picks the key encoding for a family over cols.
func (op *foldOp) newFamily(cols []int) *armFamily {
	f := &armFamily{cols: cols, entries: make([][]int32, 1)}
	if op.tab != nil && len(cols) <= len(intKey{}.v) {
		for _, c := range cols {
			ints, isNull, isInt := op.tab.IntColumn(c)
			if !isInt {
				f.colInts = nil
				break
			}
			f.colInts, f.colNull = append(f.colInts, ints), append(f.colNull, isNull)
		}
	}
	if f.colInts != nil {
		f.ints = make(map[intKey]int32)
	} else {
		f.strs = make(map[string]int32)
		op.view = true // the row's values are read through the row view
	}
	return f
}

// soleAcc is the per-group state the ELSE 0 settlement needs, one per arm
// family: the one entry every row of the group has selected so far. It rides
// behind the group's real accumulators (accs[len(specs)+family], only in a
// fold with an ELSE 0 arm to settle) because it is the same kind of thing — a
// partial state that partitions merge — and there it costs other folds
// nothing. Rows reach it through see, never add.
type soleAcc struct{ entry int32 }

// The states of a soleAcc besides an entry number.
const (
	soleNone  int32 = -1 // no row yet
	soleMixed int32 = -2 // rows of different entries
)

// see notes the entry of one more row — or, merging, of another partition.
func (a *soleAcc) see(e int32) {
	switch {
	case a.entry == soleNone:
		a.entry = e
	case e != a.entry && e != soleNone:
		a.entry = soleMixed
	}
}

func (a *soleAcc) add(value.Value) error { return nil }

func (a *soleAcc) merge(o accumulator) error {
	b, ok := o.(*soleAcc)
	if !ok {
		return mergeTypeError(a, o)
	}
	a.see(b.entry)
	return nil
}

func (a *soleAcc) result() value.Value { return value.Null }

// dispatch returns the specs a row of group g reaches — every plain spec and,
// per family, the arms of the entry its column values select — in ascending
// spec order, so the first error a row raises is the one the arm-by-arm
// reference raises — and shows each family's soleAcc the entry.
func (w *foldWorker) dispatch(g *groupState, r int, row expr.Row) []int32 {
	op := w.op
	todo := append(w.todo[:0], op.plain...)
	for fi, f := range op.families {
		var e int32
		if f.ints != nil {
			w.armInts.setRow(f.colInts, f.colNull, r)
			e = f.ints[w.armInts]
		} else {
			w.armKey = w.armKey[:0]
			for _, c := range f.cols {
				w.armKey = value.AppendKey(w.armKey, row.ColumnValue(c))
			}
			e = f.strs[string(w.armKey)]
		}
		if op.elseZero != nil {
			g.accs[len(op.specs)+fi].(*soleAcc).see(e)
		}
		for _, i := range f.entries[e] {
			// Each source is ascending, so this insertion rarely moves anything.
			at := len(todo)
			todo = append(todo, i)
			for ; at > 0 && todo[at-1] > i; at-- {
				todo[at] = todo[at-1]
			}
			todo[at] = i
		}
	}
	w.todo = todo
	return todo
}

// settleElse gives the ELSE 0 of each dispatched sum arm its effect on a
// merged group. The reference adds 0 on every row the arm's condition
// rejects; the dispatch adds nothing on those rows, and one add(0) after the
// fact is the same sum: it makes an arm no row matched 0 instead of NULL,
// leaves an INTEGER sum alone, and turns a FLOAT sum of -0.0 into +0.0 —
// which is all any number of interleaved zeros can do. The arms of one family
// are disjoint, so an arm rejected no row exactly when every row of the group
// selected its entry: the family's soleAcc says which entry that is, if any,
// and an empty group (the global aggregate over no rows) settles nothing.
func (op *foldOp) settleElse(g *groupState) {
	for fi, acc := range g.accs[len(op.specs):] {
		sole := acc.(*soleAcc).entry
		if sole == soleNone {
			continue
		}
		for e, specs := range op.families[fi].entries {
			if int32(e) == sole {
				continue
			}
			for _, i := range specs {
				if op.elseZero[i] {
					_ = g.accs[i].add(value.NewInt(0)) // a sum takes any INTEGER
				}
			}
		}
	}
}

// dispatchAttr renders the fold's dispatch as <arms>/<families> for its
// spans; "" when no spec dispatched.
func (op *foldOp) dispatchAttr() string {
	if len(op.families) == 0 {
		return ""
	}
	arms := 0
	for _, f := range op.families {
		arms += f.arms
	}
	return fmt.Sprintf("%d/%d", arms, len(op.families))
}

// dispatchColumns names, for EXPLAIN, the column list of each arm family
// among specs and how many arms it routes: "(dweek) arms=7, (dept, store) arms=40".
func dispatchColumns(specs []aggSpec, sch relSchema) string {
	op := &foldOp{specs: specs}
	op.planDispatch(sch)
	parts := make([]string, len(op.families))
	for i, f := range op.families {
		names := make([]string, len(f.cols))
		for j, c := range f.cols {
			names[j] = sch[c].Name
		}
		parts[i] = fmt.Sprintf("(%s) arms=%d", strings.Join(names, ", "), f.arms)
	}
	return strings.Join(parts, ", ")
}
