package engine

import (
	"math"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

// Keys. Every key the engine groups, deduplicates or dispatches by — a fold's
// group key and an arm family's columns (keyCols), the collected tail's
// DISTINCT row, a count(DISTINCT) argument — is a groupTable key of
// fixed-width int64 slots (grouptable.go), one a component, and this file is
// the one place that says how a component's value becomes its slot:
//
//	INTEGER  its value
//	VARCHAR  its code in the column's dictionary: one string, one code
//	REAL     value.KeyBits — ±0.0 one key, every NaN one — and a sign bit
//	BOOLEAN  0 or 1
//	NULL     0, with the component's NULL bit set
//
// A component read off a typed vector is written a batch at a time by a loop
// typed for the vector (readKeys, readReals, readBools; readCells and
// readBoolCells on the direct route): a bare column straight off its stored
// vector by the tuples' ids, a column an outer join NULL-extends off the
// batch vector it is gathered into first (Vector.Gather: id -1 is NULL). A
// component read off a boxed vector — a computed key evaluated into one, a
// collected column of mixed kinds, a count(DISTINCT) argument — is coded: its
// slot is its value's code in its table's own dictionary (keyDict), which
// tells kinds apart, so 1 and 1.0 stay two keys.

// layout is the shape of a key: width slots and ms mask bytes — mb of NULL
// bits, one a slot, then, when a slot can hold a REAL, mb of sign bits — and
// the slots that are coded. In flight a key is stride words, a mask byte
// each.
type layout struct {
	width, mb, ms, stride int
	coded                 []int
}

// newKeyCols lays out components that read vectors like their vec: a boxed
// one is coded.
func newKeyCols(cols []keyCol) keyCols {
	kc, signs := keyCols{cols: cols, layout: layout{width: len(cols)}}, 1
	for c := range cols {
		if v := &cols[c].vec; v.Boxed {
			kc.coded, signs = append(kc.coded, c), 2
		} else if v.Type == storage.TypeFloat {
			signs = 2
		}
		kc.mat = kc.mat || cols[c].outer || cols[c].e != nil || cols[c].recode != nil
	}
	kc.mb = max(1, (kc.width+7)/8)
	kc.ms = signs * kc.mb
	kc.stride = kc.width + kc.ms
	return kc
}

// chunk returns the buffer a run of keys in flight is read into, and how
// many keys it holds, at most hashChunk: buf — its caller's frame — while a
// key fits it, one key's worth on the heap past that.
func (l *layout) chunk(buf []int64) ([]int64, int) {
	n := min(hashChunk, len(buf)/l.stride)
	if n == 0 {
		return make([]int64, l.stride), 1
	}
	return buf[:n*l.stride], n
}

// bitAt is slot s's bit in mask bytes m.
func bitAt(m []uint8, s int) uint8 { return m[s>>3] >> (s & 7) & 1 }

// keyDict codes the values of coded slots in first-appearance order, a
// value's code its position: one code per kind and SQL-equal value — the
// REAL zeros one, every NaN one; a group's sign bit says which it shows. It
// is one table's, a fold partition's shared by the partition's
// count(DISTINCT) sets, so it needs no lock, and a merge recodes
// (groupTable.lookupFrom).
type keyDict struct {
	codes map[dictKey]int32
	vals  []value.Value
}

type dictKey struct {
	kind value.Kind
	bits int64 // an INTEGER, value.KeyBits of a REAL, a BOOLEAN's 0 or 1
	str  string
}

// code returns the code of v, added if new when insert is set and -1 — no
// slot's — when absent otherwise.
func (d *keyDict) code(v value.Value, insert bool) int64 {
	k := dictKey{kind: v.Kind()}
	switch k.kind {
	case value.KindInt:
		k.bits = v.Int()
	case value.KindFloat:
		k.bits = int64(value.KeyBits(v.Float()))
	case value.KindString:
		k.str = v.Str()
	case value.KindBool:
		k.bits = int64(bitOf(v.Bool()))
	}
	c, ok := d.codes[k]
	switch {
	case ok:
		return int64(c)
	case !insert:
		return -1
	case d.codes == nil:
		d.codes = map[dictKey]int32{}
	}
	d.codes[k] = int32(len(d.vals))
	d.vals = append(d.vals, v)
	return int64(len(d.vals) - 1)
}

func bitOf(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// keyCols is how one key is read: a component per column or expression, in
// order, a slot each.
type keyCols struct {
	layout
	cols []keyCol
	// mat: some component is materialized into a batch vector first.
	mat bool
}

// keyCol is one component: column col of the pipeline's table t — vec as the
// plan found it, gathered first when an outer join NULL-extends the table
// (outer) or its codes are recoded — or a computed expression e, evaluated
// into a boxed vector first, as vec says, and coded.
type keyCol struct {
	vec    storage.Vector
	t, col int
	outer  bool
	e      expr.Expr
	// recode maps a VARCHAR column's codes to a join index's, which keys
	// the column under another dictionary, into: 1 + the code there, -1 for
	// a string into lacks, 0 for a code no tuple has met yet (recoded).
	recode []int32
	into   *storage.Dict
}

// recoded returns into's code of the string of code, -1 for none, looking it
// up the first time a tuple meets code. The workers of a fold share recode.
func (col *keyCol) recoded(code int32) int32 {
	at := atomic.LoadInt32(&col.recode[code])
	if at == 0 {
		at = -1
		if c, ok := col.into.Code(col.vec.Dict.Str(code)); ok {
			at = c + 1
		}
		atomic.StoreInt32(&col.recode[code], at)
	}
	return max(at-1, -1)
}

// batchRows is [0, batchSize): a batch's tuples, and the rows of a batch
// vector a component is materialized into — tuple lo+i sits at i.
var batchRows = rowRange(make([]int32, batchSize), 0, batchSize)

// materialize fills mat[c], for tuples [lo, hi) of b, for each component c
// that is not read in place: a NULL-extended or recoded column gathered, a
// computed one evaluated, boxed, in row order, so its first error is a
// row-at-a-time fold's.
func (kc *keyCols) materialize(b *tupleBatch, lo, hi int, mat []storage.Vector) error {
	for c := range kc.cols {
		switch col, m := &kc.cols[c], &mat[c]; {
		case col.recode != nil:
			m.Gather(&col.vec, b.ids[col.t][lo:hi])
			for i, code := range m.Codes {
				if int(code) < len(col.recode) { // a NULL's code may be any
					m.Codes[i] = col.recoded(code)
				}
			}
		case col.outer:
			m.Gather(&col.vec, b.ids[col.t][lo:hi])
		case col.e != nil:
			m.ResizeBoxed(hi - lo)
			for k := lo; k < hi; k++ {
				v, err := col.e.Eval(b.row(k))
				if err != nil {
					return err
				}
				m.Vals[k-lo] = v
			}
		}
	}
	return nil
}

// source returns the vector component c of tuples [lo, hi) of b is read off
// and the tuples' rows in it: a stored column's, by the tuples' ids, or the
// batch vector materialize filled, by position.
func (kc *keyCols) source(c int, b *tupleBatch, lo, hi int, mat []storage.Vector) (*storage.Vector, []int32) {
	if col := &kc.cols[c]; !col.outer && col.e == nil && col.recode == nil {
		return &col.vec, b.ids[col.t][lo:hi]
	}
	return &mat[c], batchRows[:hi-lo]
}

// read writes component c of the keys in flight of the tuples at rows of v,
// stride words apart from keys[0] on, through the loop typed for v; a boxed
// one's values code into dict.
func (kc *keyCols) read(c int, v *storage.Vector, rows []int32, keys []int64, dict *keyDict, insert bool) {
	st, bit := kc.stride, int64(1)<<(c&7)
	switch slots, nulls := keys[c:], keys[kc.width+c>>3:]; {
	case v.Boxed:
		readBoxed(v.Vals, rows, slots, keys[kc.width+kc.mb+c>>3:], st, bit, dict, insert)
	case v.Type == storage.TypeInt:
		readKeys(v.Ints, v.Nulls, rows, slots, nulls, st, bit)
	case v.Type == storage.TypeString:
		readKeys(v.Codes, v.Nulls, rows, slots, nulls, st, bit)
	case v.Type == storage.TypeFloat:
		readReals(v.Flts, v.Nulls, rows, slots, nulls, keys[kc.width+kc.mb+c>>3:], st, bit)
	default:
		readBools(v.Bools, v.Nulls, rows, slots, nulls, st, bit)
	}
}

// readKeys writes an INTEGER or VARCHAR component of each tuple's key — its
// value at the tuple's row into keys, or its NULL bit into masks, both from
// the component's own slot and mask word on, stride words a key.
func readKeys[T int32 | int64](vals []T, nulls storage.NullBitmap, rows []int32, keys, masks []int64, stride int, bit int64) {
	for i, r := range rows {
		if nulls.Get(int(r)) {
			masks[i*stride] |= bit
		} else {
			keys[i*stride] = int64(vals[r])
		}
	}
}

// readReals is readKeys for a REAL component: its canonical bits, and its own
// sign bit in signs.
func readReals(vals []float64, nulls storage.NullBitmap, rows []int32, keys, masks, signs []int64, stride int, bit int64) {
	for i, r := range rows {
		if nulls.Get(int(r)) {
			masks[i*stride] |= bit
		} else {
			keys[i*stride] = int64(value.KeyBits(vals[r]))
			signs[i*stride] |= bit * int64(math.Float64bits(vals[r])>>63)
		}
	}
}

// readBools is readKeys for a BOOLEAN component: 0 or 1. It takes a loop
// without the NULL test when nulls has no words (storage.NullBitmap).
func readBools(vals []bool, nulls storage.NullBitmap, rows []int32, keys, masks []int64, stride int, bit int64) {
	if len(nulls) == 0 {
		for i, r := range rows {
			keys[i*stride] = int64(bitOf(vals[r]))
		}
		return
	}
	for i, r := range rows {
		if nulls.Get(int(r)) {
			masks[i*stride] |= bit
		} else {
			keys[i*stride] = int64(bitOf(vals[r]))
		}
	}
}

// readBoxed is readKeys for a coded component: its value's code in dict, and
// a REAL's sign bit in signs.
func readBoxed(vals []value.Value, rows []int32, keys, signs []int64, stride int, bit int64, dict *keyDict, insert bool) {
	for i, r := range rows {
		keys[i*stride] = dict.code(vals[r], insert)
		if vals[r].Kind() == value.KindFloat {
			signs[i*stride] |= bit * int64(math.Float64bits(vals[r].Float())>>63)
		}
	}
}

// readCells folds component c of each tuple's key — the value at its row,
// of an INTEGER column or a VARCHAR column's codes — into its direct-route
// cell. A value outside the bounds makes the cell t.cells, past every cell of
// the directory, and every later component keeps it there.
func readCells[T int32 | int64](t *groupTable, c int, vals []T, nulls storage.NullBitmap, rows []int32, cells []int32) {
	lo, span, out, cells := t.lo[c], t.span[c], uint64(t.cells), cells[:len(rows)]
	if len(nulls) == 0 {
		for i, r := range rows {
			if d, in := digitOf(int64(vals[r]), lo, span); in {
				cells[i] = int32(min(uint64(cells[i])*span+d, out))
			} else {
				cells[i] = int32(out)
			}
		}
		return
	}
	for i, r := range rows {
		d := uint64(0)
		if !nulls.Get(int(r)) {
			var in bool
			if d, in = digitOf(int64(vals[r]), lo, span); !in {
				d = out
			}
		}
		cells[i] = int32(min(uint64(cells[i])*span+d, out))
	}
}

// readBoolCells is readCells for a BOOLEAN column, laid out over [0, 1]: its
// digit is 1 + the value, never out of bounds.
func readBoolCells(t *groupTable, c int, vals []bool, nulls storage.NullBitmap, rows []int32, cells []int32) {
	span, out, cells := t.span[c], uint64(t.cells), cells[:len(rows)]
	for i, r := range rows {
		d := uint64(0)
		if !nulls.Get(int(r)) {
			d = 1 + uint64(bitOf(vals[r]))
		}
		cells[i] = int32(min(uint64(cells[i])*span+d, out))
	}
}

// column fills v with component c of keys [base, base+n) of t: a typed
// vector of the column's type — VARCHAR as codes in the column's dictionary —
// or, coded, a boxed one of the values the codes show; a REAL with its first
// row's sign.
func (kc *keyCols) column(c int, t *groupTable, base, n int, v *storage.Vector) {
	vec := &kc.cols[c].vec
	signed := func(bits uint64, mask []uint8) float64 {
		return math.Float64frombits(bits | uint64(bitAt(mask[t.mb:], c))<<63)
	}
	if vec.Boxed {
		v.ResizeBoxed(n)
	} else {
		v.Resize(vec.Type, n)
	}
	for g := range n {
		key, mask := t.key(base + g)
		switch x := key[c]; {
		case vec.Boxed:
			if v.Vals[g] = t.dict.vals[x]; v.Vals[g].Kind() == value.KindFloat {
				v.Vals[g] = value.NewFloat(signed(value.KeyBits(v.Vals[g].Float()), mask))
			}
			continue
		case vec.Type == storage.TypeInt:
			v.Ints[g] = x
		case vec.Type == storage.TypeString:
			v.Codes[g] = int32(x)
		case vec.Type == storage.TypeFloat:
			v.Flts[g] = signed(uint64(x), mask)
		default:
			v.Bools[g] = x != 0
		}
		if bitAt(mask, c) != 0 {
			v.SetNull(g)
		}
	}
	v.Dict = vec.Dict // a VARCHAR column's; no other vector reads one
}
