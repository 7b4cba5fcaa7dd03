package engine

import (
	"fmt"
	"math"

	"repro/internal/expr"
	"repro/internal/value"
)

// accumulator folds one aggregate function over the rows of a group.
// merge folds another accumulator of the same concrete type — built over a
// disjoint row partition — into the receiver, so that add(r1…rn) ≡
// add(r1…rk).merge(add(rk+1…rn)) for every split point k. The parallel
// aggregation path relies on this to combine per-worker partial states.
type accumulator interface {
	add(v value.Value) error
	merge(o accumulator) error
	result() value.Value
}

// mergeTypeError reports an accumulator-kind mismatch during a parallel
// merge. It can only fire on an engine bug (workers build their accumulators
// from the same specs), so it is defensive rather than reachable from SQL.
func mergeTypeError(dst, src accumulator) error {
	return fmt.Errorf("engine: cannot merge %T into %T", src, dst)
}

// newAccumulator builds the accumulator object for an aggregate call the fold
// does not keep in a cell (planSlot): avg, count(DISTINCT), min and max. A
// plain sum or count is a cell, and an object only in the reference fold
// (refAccumulator, oracle_test.go). BY-carrying calls never reach here (the
// rewriter eliminates them). A count(DISTINCT) set codes its values in dict,
// its fold partition's, or in one of its own when dict is nil.
func newAccumulator(call *expr.AggCall, dict *keyDict) (accumulator, error) {
	if call.Distinct {
		if call.Fn != expr.AggCount {
			return nil, fmt.Errorf("engine: DISTINCT is only supported with count()")
		}
		if dict == nil {
			dict = new(keyDict)
		}
		return &countDistinctAcc{set: groupTable{layout: distinctLayout, dict: dict}}, nil
	}
	switch call.Fn {
	case expr.AggAvg:
		return &avgAcc{}, nil
	case expr.AggMin:
		return &minMaxAcc{min: true}, nil
	case expr.AggMax:
		return &minMaxAcc{}, nil
	default:
		return nil, fmt.Errorf("engine: aggregate %s must be rewritten before execution", call.Fn)
	}
}

// Cells. The fold operator (fold.go) keeps a sum, a count and the extreme of
// a bare numeric column not as an accumulator object per group but as one
// cell — 8 bytes and a tag — in its partition's flat arrays: num is an
// INTEGER, or the bits of a REAL when the tag says so. A count needs no tag:
// its cell is the number. The functions below are the accumulators' rules on
// a cell; sumAcc is one cell behind the accumulator interface.
const (
	cellNone  uint8 = iota // no non-NULL value yet: the result is NULL
	cellInt                // num is the INTEGER result
	cellFloat              // num holds the bits of the REAL result
)

func cellFloatOf(num int64, tag uint8) float64 {
	if tag == cellInt {
		return float64(num)
	}
	return math.Float64frombits(uint64(num))
}

func floatCell(f float64) int64 { return int64(math.Float64bits(f)) }

// addSum adds v to a sum cell skipping NULLs; an all-NULL (or empty) group
// stays cellNone, SQL sum()'s NULL — the semantics Vpct inherits. The sum is
// INTEGER until the first REAL demotes it, and a first REAL initialises it,
// so a lone -0.0 survives.
func addSum(num *int64, tag *uint8, v value.Value) error {
	switch k := v.Kind(); {
	case k == value.KindNull:
	case k == value.KindInt && *tag == cellNone: // whatever the cell started at
		*num, *tag = v.Int(), cellInt
	case k == value.KindInt && *tag == cellInt:
		*num += v.Int()
	case k == value.KindInt:
		*num = floatCell(cellFloatOf(*num, *tag) + float64(v.Int()))
	case k == value.KindFloat && *tag == cellNone:
		*num, *tag = floatCell(v.Float()), cellFloat
	case k == value.KindFloat:
		*num, *tag = floatCell(cellFloatOf(*num, *tag)+v.Float()), cellFloat
	default:
		return fmt.Errorf("engine: sum() on %s", k)
	}
	return nil
}

// mergeCell folds the cell of a higher partition into the same aggregate's
// cell of a lower one, as adding the higher partition's values after the
// lower one's would have: counts and INTEGER sums add, any REAL on either
// side demotes the whole sum, the lower partition's extreme wins ties.
func mergeCell(fn expr.AggFn, num *int64, tag *uint8, fromNum int64, fromTag uint8) {
	switch {
	case fn == expr.AggCount:
		*num += fromNum
	case fromTag == cellNone:
	case *tag == cellNone:
		*num, *tag = fromNum, fromTag
	case fn == expr.AggSum && *tag == cellInt && fromTag == cellInt:
		*num += fromNum
	case fn == expr.AggSum:
		*num, *tag = floatCell(cellFloatOf(*num, *tag)+cellFloatOf(fromNum, fromTag)), cellFloat
	case fn == expr.AggMin && cellLess(fromNum, *num, *tag) || fn == expr.AggMax && cellLess(*num, fromNum, *tag):
		*num = fromNum // an extreme's cells are of one typed column: the tags agree
	}
}

func cellLess(a, b int64, tag uint8) bool {
	if tag == cellInt {
		return a < b
	}
	return math.Float64frombits(uint64(a)) < math.Float64frombits(uint64(b))
}

// cellResult boxes a cell's aggregate.
func cellResult(fn expr.AggFn, num int64, tag uint8) value.Value {
	switch {
	case fn == expr.AggCount || tag == cellInt:
		return value.NewInt(num)
	case tag == cellNone:
		return value.Null
	}
	return value.NewFloat(cellFloatOf(num, tag))
}

// sumAcc is a sum cell as an accumulator: the sum inside avgAcc, and the
// reference fold's sum().
type sumAcc struct {
	num int64
	tag uint8
}

func (a *sumAcc) add(v value.Value) error { return addSum(&a.num, &a.tag, v) }

func (a *sumAcc) merge(o accumulator) error {
	b, ok := o.(*sumAcc)
	if !ok {
		return mergeTypeError(a, o)
	}
	mergeCell(expr.AggSum, &a.num, &a.tag, b.num, b.tag)
	return nil
}

func (a *sumAcc) result() value.Value { return cellResult(expr.AggSum, a.num, a.tag) }

// countDistinctAcc counts distinct non-NULL values: the set of their codes
// (keys.go), on the hash route.
type countDistinctAcc struct{ set groupTable }

// distinctLayout is a count(DISTINCT) key's: one coded slot.
var distinctLayout = layout{width: 1, mb: 1, ms: 1, stride: 2, coded: []int{0}}

func (a *countDistinctAcc) add(v value.Value) error {
	if !v.IsNull() {
		a.set.lookupKey([]int64{a.set.dict.code(v, true), 0}, true)
	}
	return nil
}

// merge takes the set union of the two partitions' value sets: count
// distinct is not distributive over partial counts (both partitions may have
// seen the same value), so the full set must travel with the partial state.
func (a *countDistinctAcc) merge(o accumulator) error {
	b, ok := o.(*countDistinctAcc)
	if !ok {
		return mergeTypeError(a, o)
	}
	for g := range b.set.len() {
		a.set.lookupFrom(&b.set, g)
	}
	return nil
}

func (a *countDistinctAcc) result() value.Value { return value.NewInt(int64(a.set.len())) }

// avgAcc averages non-NULL values; empty → NULL.
type avgAcc struct {
	sum sumAcc
	n   int64
}

func (a *avgAcc) add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	a.n++
	return a.sum.add(v)
}

func (a *avgAcc) merge(o accumulator) error {
	b, ok := o.(*avgAcc)
	if !ok {
		return mergeTypeError(a, o)
	}
	if err := a.sum.merge(&b.sum); err != nil {
		return err
	}
	a.n += b.n
	return nil
}

func (a *avgAcc) result() value.Value {
	if a.n == 0 {
		return value.Null
	}
	s := a.sum.result()
	f, _ := s.AsFloat()
	return value.NewFloat(f / float64(a.n))
}

// minMaxAcc tracks the extreme non-NULL value; empty → NULL.
type minMaxAcc struct {
	min  bool
	seen bool
	best value.Value
}

func (a *minMaxAcc) add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	if !a.seen {
		a.seen, a.best = true, v
		return nil
	}
	c := value.Compare(v, a.best)
	if (a.min && c < 0) || (!a.min && c > 0) {
		a.best = v
	}
	return nil
}

func (a *minMaxAcc) merge(o accumulator) error {
	b, ok := o.(*minMaxAcc)
	if !ok || a.min != b.min {
		return mergeTypeError(a, o)
	}
	if !b.seen {
		return nil
	}
	return a.add(b.best)
}

func (a *minMaxAcc) result() value.Value {
	if !a.seen {
		return value.Null
	}
	return a.best
}

// aggSpec pairs an aggregate call with its bound argument expression.
type aggSpec struct {
	call *expr.AggCall
	arg  expr.Expr // bound; nil for count(*)
}
