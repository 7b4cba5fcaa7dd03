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
// constant-tuple → spec-indices table per family; the fold then reads a
// batch's family columns once, finds each tuple's entry — one directory load
// on the direct route — and advances each arm, THEN and add, over the tuples
// that matched it in one kernel call. An arm that did not match does nothing
// per row: its ELSE is settled once per group at emit (settleElse).
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

// armFamily is the dispatch table of the arms testing one column list: a
// group table (grouptable.go) built at plan time over the arms' constant
// tuples and only read by the workers — on the direct route, like a fold's
// group table, when its columns' domains allow. A tuple's id is its entry:
// entries[id] lists the specs, ascending, whose condition is that tuple; a
// row no arm matches resolves to -1.
type armFamily struct {
	cols    []int
	arms    int
	entries [][]int32
	keys    keyCols
	tab     groupTable
}

// planDispatch makes op's slots, recognising the arm families among its
// specs, and returns what each spec accumulates: a recognised one its THEN
// expression, the rest their argument.
func (op *foldOp) planDispatch(sch relSchema) []expr.Expr {
	args := make([]expr.Expr, len(op.specs))
	op.slots, op.init = make([]aggSlot, len(op.specs)), make([]int64, 0, len(op.specs))
	var a arm
	settle := false // some ELSE 0 to settle: groups keep a sole state per family
	for i, s := range op.specs {
		if args[i], op.slots[i].family = s.arg, -1; !a.recognise(s, sch) {
			continue
		}
		fi := slices.IndexFunc(op.families, func(f *armFamily) bool { return slices.Equal(f.cols, a.cols) })
		if fi < 0 {
			keys := make([]expr.Expr, len(a.cols))
			for k, c := range a.cols {
				keys[k] = expr.BoundCol(sch[c].Name, c)
			}
			f := &armFamily{cols: slices.Clone(a.cols), keys: op.keyCols(keys)}
			f.tab = newGroupTable(f.keys.layout, &bounds{}, new(keyDict))
			fi, op.families = len(op.families), append(op.families, f)
		}
		f := op.families[fi]
		e, fresh := f.lookup(a.consts)
		if fresh {
			f.entries = append(f.entries, nil)
		}
		f.arms, f.entries[e] = f.arms+1, append(f.entries[e], int32(i))
		args[i], op.slots[i].family, op.slots[i].entry, op.slots[i].elseZero = a.then, int32(fi), e, a.elseZero
		settle = settle || a.elseZero
	}
	// A family goes direct like a fold's key, its columns' ranges widened to
	// cover its constants — an arm may test a value no row holds, or a string
	// the dictionary lacks (-1) — with a directory over the stored constants.
	// EXPLAIN's families (dispatchColumns) have no pipeline, and no need.
	for _, f := range op.families {
		if op.pipe == nil {
			break
		}
		if b, ok := directBounds(&f.keys, op.pipe.tabs, op.rows, &f.tab); ok {
			f.tab.direct(&b)
		}
	}
	if settle {
		op.soles = len(op.families)
	}
	return args
}

// lookup returns the entry of a constant tuple, inserting it if new.
func (f *armFamily) lookup(consts []value.Value) (entry int32, fresh bool) {
	var buf [maxIntKeys + 2]int64
	key, _ := f.keys.chunk(buf[:])
	key = key[:f.keys.stride]
	for k, v := range consts {
		switch col := &f.keys.cols[k]; {
		case col.vec.Boxed:
			key[k] = f.tab.dict.code(v, true)
		case v.IsNull():
			key[f.keys.width+k>>3] |= 1 << (k & 7)
		case v.Kind() == value.KindString:
			// A string the column's dictionary lacks is on no row, and no code
			// is negative.
			code, ok := col.vec.Dict.Code(v.Str())
			if key[k] = int64(code); !ok {
				key[k] = -1
			}
		case v.Kind() == value.KindBool:
			key[k] = int64(bitOf(v.Bool()))
		default:
			key[k] = v.Int()
		}
	}
	return f.tab.lookupKey(key, true)
}

// The sole state, one per (group, arm family) of a fold with an ELSE 0 arm to
// settle: the one entry every row of the group has selected so far, kept as
// entry + 2 — "no arm matches" (-1) is a selection like any other — beside
// the two states below. It is partial state like the cells: partitions merge
// it.
const (
	soleNone  int32 = 0  // no row yet
	soleMixed int32 = -1 // rows of different entries
)

// seeSole notes the selection of one more row — or, merging, the state of
// another partition.
func seeSole(sole *int32, e int32) {
	switch {
	case *sole == soleNone:
		*sole = e
	case e != *sole && e != soleNone:
		*sole = soleMixed
	}
}

// settleElse gives the ELSE 0 of each dispatched sum arm its effect on merged
// group g. The reference adds 0 on every row the arm's condition rejects;
// the dispatch adds nothing on those rows, and one add of 0 after the fact
// is the same sum: it makes an arm no row matched 0 instead of NULL, leaves
// an INTEGER sum alone, and turns a FLOAT sum of -0.0 into +0.0 — which is
// all any number of interleaved zeros can do. The arms of one family are
// disjoint, so an arm rejected no row exactly when every row of the group
// selected its entry: the family's sole state says which entry that is, if
// any, and an empty group (the global aggregate over no rows) settles
// nothing.
func (op *foldOp) settleElse(p *foldPart, g int) {
	for fi, sole := range p.soles[g*op.soles : (g+1)*op.soles] {
		if sole == soleNone {
			continue
		}
		for e, specs := range op.families[fi].entries {
			if int32(e)+2 == sole {
				continue
			}
			for _, i := range specs {
				if op.slots[i].elseZero {
					c := g*op.cells + op.slots[i].cell
					_ = addSum(&p.num[c], &p.tag[c], value.NewInt(0)) // a sum takes any INTEGER
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
