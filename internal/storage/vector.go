package storage

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/value"
)

// Vector is the one typed column: a table stores each of its columns as one,
// and a batch of rows in flight between operators carries one per column.
// The cells of one column type sit in the typed slice for it with the NULL
// bitmap beside them — a VARCHAR cell as its code in Dict — or, Boxed, a
// batch's cells of whatever kind an expression evaluated to sit in Vals. A
// producer sizes a batch vector with Resize or ResizeBoxed, which keep the
// buffers, so a statement allocates each vector once; a consumer reads the
// first n cells it is told of and nothing after the call that handed it
// over.
type Vector struct {
	Type  ColumnType
	Boxed bool
	Ints  []int64
	Flts  []float64
	Codes []int32 // VARCHAR: each cell's code in Dict
	Dict  *Dict
	owns  bool // Dict is v's to add strings to: no other vector was given it
	Bools []bool
	Nulls NullBitmap // a typed vector's NULL cells, whose typed slots mean nothing (a code 0)
	Vals  []value.Value
}

// Resize makes v a typed vector of n cells of typ with no NULL among them;
// the cells' contents are the caller's to write. A VARCHAR vector drops its
// dictionary: the caller shares one (Gather) or Set codes into a new one.
func (v *Vector) Resize(typ ColumnType, n int) {
	v.Type, v.Boxed, v.Nulls, v.Dict, v.owns = typ, false, v.Nulls[:0], nil, false
	switch typ {
	case TypeInt:
		v.Ints = sized(v.Ints, n)
	case TypeFloat:
		v.Flts = sized(v.Flts, n)
	case TypeString:
		v.Codes = sized(v.Codes, n)
	case TypeBool:
		v.Bools = sized(v.Bools, n)
	}
}

// ResizeBoxed makes v a boxed vector of n cells.
func (v *Vector) ResizeBoxed(n int) { v.Boxed, v.Vals = true, sized(v.Vals, n) }

func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Len is the number of cells.
func (v *Vector) Len() int {
	switch {
	case v.Boxed:
		return len(v.Vals)
	case v.Type == TypeInt:
		return len(v.Ints)
	case v.Type == TypeFloat:
		return len(v.Flts)
	case v.Type == TypeString:
		return len(v.Codes)
	}
	return len(v.Bools)
}

// SetNull marks cell i of a typed vector NULL. The first NULL sizes the
// bitmap for the whole vector, so a batch allocates it once.
func (v *Vector) SetNull(i int) { v.Nulls.set(i, (v.Len()+63)>>6) }

// Set stores x — NULL, or a value of the vector's type — in cell i of a typed
// vector; a string as its code (Vector.code).
func (v *Vector) Set(i int, x value.Value) {
	switch {
	case x.IsNull():
		v.SetNull(i)
	case v.Type == TypeInt:
		v.Ints[i] = x.Int()
	case v.Type == TypeFloat:
		v.Flts[i] = x.Float()
	case v.Type == TypeString:
		v.Codes[i] = v.code(x.Str())
	default:
		v.Bools[i] = x.Bool()
	}
}

// Null reports whether cell i is NULL.
func (v *Vector) Null(i int) bool {
	if v.Boxed {
		return v.Vals[i].IsNull()
	}
	return v.Nulls.Get(i)
}

// Value boxes cell i.
func (v *Vector) Value(i int) value.Value {
	switch {
	case v.Boxed:
		return v.Vals[i]
	case v.Null(i):
		return value.Null
	case v.Type == TypeInt:
		return value.NewInt(v.Ints[i])
	case v.Type == TypeFloat:
		return value.NewFloat(v.Flts[i])
	case v.Type == TypeString:
		return value.NewString(v.Dict.Str(v.Codes[i]))
	}
	return value.NewBool(v.Bools[i])
}

// code returns the code of s in v's dictionary, adding s if it is new: to a
// dictionary v owns — a new one when v has none, a copy of the one it shares
// when it does not own it. So a table's writes never change the dictionary of
// another table, or of a batch it was filled from.
func (v *Vector) code(s string) int32 {
	if !v.owns {
		if c, ok := v.Dict.Code(s); ok {
			return c
		}
		if v.Dict == nil {
			v.Dict = new(Dict)
		} else {
			v.Dict = v.Dict.clone()
		}
		v.owns = true
	}
	return v.Dict.intern(s)
}

// Strings returns a VARCHAR vector of strs, coded into a new dictionary.
func Strings(strs []string) *Vector {
	v := &Vector{Type: TypeString, Codes: make([]int32, len(strs))}
	for r, s := range strs {
		v.Codes[r] = v.code(s)
	}
	return v
}

// compact codes a VARCHAR vector anew, into a dictionary of only the strings
// its cells hold, when its dictionary holds more than twice as many strings as
// it has cells, and 64 more: the strings of deleted, overwritten and
// rolled-back cells, or a large dictionary a small table shares. Run after a
// DELETE, a rollback and before an UPDATE, it keeps a dictionary within a
// constant factor of its live rows.
func (v *Vector) compact() {
	if v.Type != TypeString || v.Boxed || v.Dict.Len() <= 2*len(v.Codes)+64 {
		return
	}
	strs, codes := v.Dict.Strs(), make([]int32, len(v.Codes))
	recode := make([]int32, len(strs)) // an old code's new one plus one, 0 while unseen
	d := new(Dict)
	for r, c := range v.Codes {
		if v.Nulls.Get(r) {
			continue
		}
		if recode[c] == 0 {
			recode[c] = d.intern(strs[c]) + 1
		}
		codes[r] = recode[c] - 1
	}
	v.Codes, v.Dict, v.owns = codes, d, true
}

// put stores x — NULL, or a value that fits the vector's type — in cell r of
// a typed vector, or in a new cell at the end when r is Len(). A value that
// does not fit is an error and leaves the vector as it was.
func (v *Vector) put(r int, x value.Value) error {
	if err := v.Type.fits(x); err != nil {
		return err
	}
	null := x.IsNull()
	switch v.Type {
	case TypeInt:
		i, _ := x.AsInt()
		v.Ints = cell(v.Ints, r, i)
	case TypeFloat:
		f, _ := x.AsFloat()
		v.Flts = cell(v.Flts, r, f)
	case TypeString:
		var c int32
		if !null {
			c = v.code(x.Str())
		}
		v.Codes = cell(v.Codes, r, c)
	case TypeBool:
		v.Bools = cell(v.Bools, r, !null && x.Bool())
	}
	if null {
		v.SetNull(r)
	} else {
		v.Nulls.clear(r)
	}
	return nil
}

// cell writes x to s[r], appending it when r is len(s).
func cell[T any](s []T, r int, x T) []T {
	if r == len(s) {
		return append(s, x)
	}
	s[r] = x
	return s
}

// reserve grows the typed slice's capacity to hold n more cells.
func (v *Vector) reserve(n int) {
	switch v.Type {
	case TypeInt:
		v.Ints = slices.Grow(v.Ints, n)
	case TypeFloat:
		v.Flts = slices.Grow(v.Flts, n)
	case TypeString:
		v.Codes = slices.Grow(v.Codes, n)
	case TypeBool:
		v.Bools = slices.Grow(v.Bools, n)
	}
}

// truncate drops the cells from n on, and their NULL bits: a cell appended
// there later must not read as NULL.
func (v *Vector) truncate(n int) {
	v.Nulls.clearFrom(n)
	switch v.Type {
	case TypeInt:
		v.Ints = v.Ints[:n]
	case TypeFloat:
		v.Flts = v.Flts[:n]
	case TypeString:
		v.Codes = v.Codes[:n]
	case TypeBool:
		v.Bools = v.Bools[:n]
	}
}

// without returns a copy of the vector less the cells listed, ascending, in
// drop: the kept runs between them are copied slice to slice — codes under
// the same dictionary, shared, unless compact codes them anew — and the NULL
// bits of the kept NULL cells set again.
func (v *Vector) without(drop []int32) Vector {
	out, n := Vector{Type: v.Type, Dict: v.Dict}, v.Len()-len(drop)
	switch v.Type {
	case TypeInt:
		out.Ints = keptRuns(make([]int64, 0, n), v.Ints, drop)
	case TypeFloat:
		out.Flts = keptRuns(make([]float64, 0, n), v.Flts, drop)
	case TypeString:
		out.Codes = keptRuns(make([]int32, 0, n), v.Codes, drop)
	case TypeBool:
		out.Bools = keptRuns(make([]bool, 0, n), v.Bools, drop)
	}
	d := 0
	v.Nulls.each(v.Len(), func(r int) {
		for d < len(drop) && int(drop[d]) < r {
			d++
		}
		if d == len(drop) || int(drop[d]) != r {
			out.SetNull(r - d)
		}
	})
	out.compact()
	return out
}

func keptRuns[T any](dst, src []T, drop []int32) []T {
	from := 0
	for _, d := range drop {
		dst = append(dst, src[from:d]...)
		from = int(d) + 1
	}
	return append(dst, src[from:]...)
}

// each calls f with every NULL cell below n, ascending.
func (b NullBitmap) each(n int, f func(r int)) {
	for w, word := range b {
		for ; word != 0; word &= word - 1 {
			r := w<<6 + bits.TrailingZeros64(word)
			if r >= n {
				return
			}
			f(r)
		}
	}
}

// Gather fills v with column col of the rows ids, in that order.
func (t *Table) Gather(col int, ids []int32, v *Vector) { v.Gather(&t.cols[col], ids) }

// Gather fills v with the cells of src at ids, in that order: a typed copy
// with the NULL bits carried — VARCHAR codes under src's dictionary — or the
// boxed values. An id of -1 — the NULL extension of an outer join's unmatched
// row — reads as NULL.
func (v *Vector) Gather(src *Vector, ids []int32) {
	if src.Boxed {
		v.ResizeBoxed(len(ids))
		gather(v.Vals, src.Vals, ids) // the zero Value is NULL
		return
	}
	v.Resize(src.Type, len(ids))
	var outer bool
	switch src.Type {
	case TypeInt:
		outer = gather(v.Ints, src.Ints, ids)
	case TypeFloat:
		outer = gather(v.Flts, src.Flts, ids)
	case TypeString:
		v.Dict, v.owns = src.Dict, false
		outer = gather(v.Codes, src.Codes, ids)
	case TypeBool:
		outer = gather(v.Bools, src.Bools, ids)
	}
	if !outer && len(src.Nulls) == 0 {
		return
	}
	for i, r := range ids {
		if r < 0 || src.Nulls.Get(int(r)) {
			v.SetNull(i)
		}
	}
}

// Append adds the first n cells of src to the end of v, a vector a collector
// fills batch by batch: v takes the first batch's form and stays typed while
// every batch is of its type; from the first that is not, it is boxed.
func (v *Vector) Append(src *Vector, n int) {
	switch have := v.Len(); {
	case have == 0:
		*v = Vector{Type: src.Type, Boxed: src.Boxed}
	case v.Boxed == src.Boxed && (v.Boxed || v.Type == src.Type):
	case !v.Boxed:
		vals := make([]value.Value, have, 2*have+n)
		for i := range vals {
			vals[i] = v.Value(i)
		}
		*v = Vector{Boxed: true, Vals: vals}
	}
	if !v.Boxed {
		v.appendVector(src, n)
		return
	}
	v.Vals = doubled(v.Vals, n)
	for k := 0; k < n; k++ {
		v.Vals = append(v.Vals, src.Value(k))
	}
}

// Fill makes v hold vals, a batch evaluated cell by cell: typed when every
// value that is not NULL is of one kind (INTEGER when none is), boxed
// otherwise.
func (v *Vector) Fill(vals []value.Value) {
	kind := value.KindNull
	for _, x := range vals {
		switch k := x.Kind(); {
		case k == value.KindNull || k == kind:
		case kind == value.KindNull:
			kind = k
		default:
			v.ResizeBoxed(len(vals))
			copy(v.Vals, vals)
			return
		}
	}
	typ := TypeInt // a batch of NULLs
	for t := range TypeBool + 1 {
		if t.Kind() == kind {
			typ = t
		}
	}
	v.Resize(typ, len(vals))
	for i, x := range vals {
		v.Set(i, x)
	}
}

// gather copies src's cells at ids into dst, the zero value at an id of -1,
// and reports whether there was one.
func gather[T any](dst, src []T, ids []int32) (outer bool) {
	for i, r := range ids {
		if r < 0 {
			var zero T
			dst[i], outer = zero, true
		} else {
			dst[i] = src[r]
		}
	}
	return outer
}

// AppendVectors appends n rows given column-wise — src[i] feeds column i, a
// nil entry is NULL in every row — and is to AppendRow what a batch is to a
// row: a source vector of the column's own type, or an INTEGER one into a
// REAL column, is checked once and copied, any other is converted cell by
// cell under AppendRow's rule, the indexes are touched only if the table has
// any, and the epoch advances once. gate, when set, is called once per row, in
// row order, before any of the rows is in the table. The rows are appended
// only when every gate call and every conversion succeeds: otherwise the
// table is as it was and the error is the first failing row's, the gate's
// before the conversion's, as n AppendRow calls behind the gate would report.
func (t *Table) AppendVectors(src []*Vector, n int, gate func() error) error {
	if len(src) != len(t.cols) {
		return fmt.Errorf("storage: table %q has %d columns, batch has %d", t.name, len(t.cols), len(src))
	}
	// Convert what cannot be copied into a vector of the target's type,
	// remembering the first row — and in it the first column — that fails.
	bad, badCol, badErr := n, 0, error(nil)
	var staged []*Vector // src with the conversions in place of their sources; nil for none
	for i, s := range src {
		typ := t.cols[i].Type
		if s == nil || !s.Boxed && (s.Type == typ || s.Type == TypeInt && typ == TypeFloat) {
			continue
		}
		if staged == nil {
			staged = slices.Clone(src)
		}
		conv := &Vector{Type: typ}
		conv.reserve(n)
		for k := 0; k < min(n, bad+1); k++ {
			if err := conv.put(k, s.Value(k)); err != nil {
				if k < bad {
					bad, badCol, badErr = k, i, err
				}
				break
			}
		}
		staged[i] = conv
	}
	for k := 0; gate != nil && k < min(n, bad+1); k++ {
		if err := gate(); err != nil {
			return err
		}
	}
	if badErr != nil {
		return fmt.Errorf("storage: table %q column %q: %w", t.name, t.schema[badCol].Name, badErr)
	}
	if staged != nil {
		src = staged
	}
	for i, s := range src {
		t.cols[i].appendVector(s, n)
	}
	base := t.nrows
	t.nrows += n
	for r := base; len(t.indexes) > 0 && r < t.nrows; r++ {
		t.indexRow(r, -1, true)
	}
	t.bumpEpoch()
	return nil
}

// appendVector adds the first n cells of s, a vector v stores without a check
// (nil: n NULLs), and then their NULL bits. Capacity doubles, so a table
// filled batch by batch allocates at most twice what it ends up holding.
func (v *Vector) appendVector(s *Vector, n int) {
	base := v.Len()
	cells := s
	if s == nil {
		cells = &Vector{Type: v.Type} // n zero cells
	}
	switch v.Type {
	case TypeInt:
		v.Ints = appendCells(v.Ints, cells.Ints, n)
	case TypeFloat:
		if cells.Type == TypeInt {
			v.Flts = doubled(v.Flts, n)
			for _, i := range cells.Ints[:n] {
				v.Flts = append(v.Flts, float64(i))
			}
		} else {
			v.Flts = appendCells(v.Flts, cells.Flts, n)
		}
	case TypeString:
		v.appendCodes(cells, n)
	case TypeBool:
		v.Bools = appendCells(v.Bools, cells.Bools, n)
	}
	if s != nil {
		s.Nulls.each(n, func(k int) { v.SetNull(base + k) })
		return
	}
	for k := 0; k < n; k++ {
		v.SetNull(base + k)
	}
}

// appendCodes appends the first n codes of s under v's dictionary. A vector
// without one shares s's, not owning it, and codes under it copy as they are.
// Under another dictionary each code of s is looked up by its string once per
// call (Vector.code).
func (v *Vector) appendCodes(s *Vector, n int) {
	if v.Dict == nil {
		v.Dict = s.Dict
	}
	if s.Dict == nil || s.Dict == v.Dict {
		v.Codes = appendCells(v.Codes, s.Codes, n) // a vector without a dictionary holds only NULLs
		return
	}
	strs, codes := s.Dict.Strs(), map[int32]int32{}
	v.Codes = doubled(v.Codes, n)
	for k, c := range s.Codes[:n] {
		if !s.Nulls.Get(k) {
			to, seen := codes[c]
			if !seen {
				to = v.code(strs[c])
				codes[c] = to
			}
			c = to
		} else {
			c = 0
		}
		v.Codes = append(v.Codes, c)
	}
}

// appendCells appends the first n cells of src to dst, zero cells where src
// has none.
func appendCells[T any](dst, src []T, n int) []T {
	dst = doubled(dst, n)
	if len(src) < n {
		dst = dst[:len(dst)+n]
		clear(dst[len(dst)-n:])
		return dst
	}
	return append(dst, src[:n]...)
}

// doubled returns s with room for n more cells, its capacity at least doubled
// when it must grow.
func doubled[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	out := make([]T, len(s), max(2*cap(s), len(s)+n))
	copy(out, s)
	return out
}
