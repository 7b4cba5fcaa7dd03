package storage

import (
	"fmt"

	"repro/internal/value"
)

// Vector is one column of a batch of rows in flight between operators: the
// cells of one column type in a typed slice with their NULL flags, or — Boxed
// — cells of whatever kind an expression evaluated to. A producer sizes it
// with Resize or ResizeBoxed, which keep the buffers, so a statement
// allocates each vector once; a consumer reads the first n cells it is told
// of and nothing after the call that handed it over.
type Vector struct {
	Type  ColumnType
	Boxed bool
	Ints  []int64
	Flts  []float64
	Strs  []string
	Bools []bool
	// Nulls is empty when no cell of a typed vector is NULL, else as long as
	// the vector with Nulls[i] set for a NULL cell i (whose typed slot means
	// nothing).
	Nulls []bool
	Vals  []value.Value
}

// Resize makes v a typed vector of n cells of typ with no NULL among them;
// the cells' contents are the caller's to write.
func (v *Vector) Resize(typ ColumnType, n int) {
	v.Type, v.Boxed, v.Nulls = typ, false, v.Nulls[:0]
	switch typ {
	case TypeInt:
		v.Ints = sized(v.Ints, n)
	case TypeFloat:
		v.Flts = sized(v.Flts, n)
	case TypeString:
		v.Strs = sized(v.Strs, n)
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
		return len(v.Strs)
	}
	return len(v.Bools)
}

// SetNull marks cell i of a typed vector NULL.
func (v *Vector) SetNull(i int) {
	if len(v.Nulls) == 0 {
		v.Nulls = sized(v.Nulls, v.Len())
		clear(v.Nulls)
	}
	v.Nulls[i] = true
}

// Set stores x — NULL, or a value of the vector's type — in cell i of a typed
// vector.
func (v *Vector) Set(i int, x value.Value) {
	switch {
	case x.IsNull():
		v.SetNull(i)
	case v.Type == TypeInt:
		v.Ints[i] = x.Int()
	case v.Type == TypeFloat:
		v.Flts[i] = x.Float()
	case v.Type == TypeString:
		v.Strs[i] = x.Str()
	default:
		v.Bools[i] = x.Bool()
	}
}

// Null reports whether cell i is NULL.
func (v *Vector) Null(i int) bool {
	if v.Boxed {
		return v.Vals[i].IsNull()
	}
	return i < len(v.Nulls) && v.Nulls[i]
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
		return value.NewString(v.Strs[i])
	}
	return value.NewBool(v.Bools[i])
}

// Gather fills v with column col of the rows ids, in that order: a typed copy
// off the column vector with the NULL bits carried. An id of -1 — the NULL
// extension of an outer join's unmatched row — reads as NULL.
func (t *Table) Gather(col int, ids []int32, v *Vector) {
	c := t.cols[col]
	v.Resize(c.typ, len(ids))
	var outer bool
	switch c.typ {
	case TypeInt:
		outer = gather(v.Ints, c.ints, ids)
	case TypeFloat:
		outer = gather(v.Flts, c.flts, ids)
	case TypeString:
		outer = gather(v.Strs, c.strs, ids)
	case TypeBool:
		outer = gather(v.Bools, c.bools, ids)
	}
	if !outer && len(c.nulls.words) == 0 {
		return
	}
	for i, r := range ids {
		if r < 0 || c.nulls.get(int(r)) {
			v.SetNull(i)
		}
	}
}

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
	// Convert what cannot be copied into a staging column of the target's type,
	// remembering the first row — and in it the first column — that fails.
	bad, badCol, badErr := n, 0, error(nil)
	var staged []*column
	for i, s := range src {
		c := t.cols[i]
		if s == nil || !s.Boxed && (s.Type == c.typ || s.Type == TypeInt && c.typ == TypeFloat) {
			continue
		}
		if staged == nil {
			staged = make([]*column, len(src))
		}
		staged[i] = newColumn(c.typ)
		staged[i].reserve(n)
		for k := 0; k < min(n, bad+1); k++ {
			if err := staged[i].append(s.Value(k)); err != nil {
				if k < bad {
					bad, badCol, badErr = k, i, err
				}
				break
			}
		}
	}
	for k := 0; gate != nil && k < min(n, bad+1); k++ {
		if err := gate(); err != nil {
			return err
		}
	}
	if badErr != nil {
		return fmt.Errorf("storage: table %q column %q: %w", t.name, t.schema[badCol].Name, badErr)
	}
	for i, s := range src {
		c := t.cols[i]
		if staged != nil && staged[i] != nil {
			s = &Vector{Type: c.typ, Ints: staged[i].ints, Flts: staged[i].flts, Strs: staged[i].strs, Bools: staged[i].bools}
			for k := 0; k < n && len(staged[i].nulls.words) > 0; k++ {
				if staged[i].nulls.get(k) {
					s.SetNull(k)
				}
			}
		}
		c.appendVector(s, n)
	}
	base := t.nrows
	t.nrows += n
	for r := base; len(t.indexes) > 0 && r < t.nrows; r++ {
		t.indexRow(r, -1, true)
	}
	t.bumpEpoch()
	return nil
}

// appendVector adds the first n cells of s, a vector the column stores without
// a check (nil: n NULLs). Capacity doubles, so a table filled batch by batch
// allocates at most twice what it ends up holding.
func (c *column) appendVector(s *Vector, n int) {
	base := c.len()
	for k := 0; (s == nil || len(s.Nulls) > 0) && k < n; k++ {
		if s == nil || s.Nulls[k] {
			c.nulls.set(base + k)
		}
	}
	if s == nil {
		s = &Vector{Type: c.typ} // n zero cells
	}
	switch c.typ {
	case TypeInt:
		c.ints = appendCells(c.ints, s.Ints, n)
	case TypeFloat:
		if s.Type == TypeInt {
			c.flts = doubled(c.flts, n)
			for _, i := range s.Ints[:n] {
				c.flts = append(c.flts, float64(i))
			}
			return
		}
		c.flts = appendCells(c.flts, s.Flts, n)
	case TypeString:
		c.strs = appendCells(c.strs, s.Strs, n)
	case TypeBool:
		c.bools = appendCells(c.bools, s.Bools, n)
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
