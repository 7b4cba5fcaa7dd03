// Package storage implements the in-memory columnar table substrate the
// query engine runs on: typed column vectors with null bitmaps, tables with
// schemas and in-place update (the paper's UPDATE-based strategies depend on
// it), and a catalog of named tables. The layout favors the access patterns
// of percentage queries: full sequential scans, append-heavy INSERT … SELECT
// into temporary tables, and keyed updates.
package storage

import (
	"fmt"

	"repro/internal/value"
)

// ColumnType is the declared type of a table column.
type ColumnType uint8

// Supported column types.
const (
	TypeInt ColumnType = iota
	TypeFloat
	TypeString
	TypeBool
)

// String returns the SQL name of the type, as accepted by CREATE TABLE.
func (t ColumnType) String() string {
	switch t {
	case TypeInt:
		return "INTEGER"
	case TypeFloat:
		return "REAL"
	case TypeString:
		return "VARCHAR"
	case TypeBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("ColumnType(%d)", uint8(t))
	}
}

// Kind maps the column type to the runtime value kind stored in it.
func (t ColumnType) Kind() value.Kind {
	switch t {
	case TypeInt:
		return value.KindInt
	case TypeFloat:
		return value.KindFloat
	case TypeString:
		return value.KindString
	case TypeBool:
		return value.KindBool
	default:
		return value.KindNull
	}
}

// typeForKind returns the column type that stores values of kind k.
func typeForKind(k value.Kind) (ColumnType, error) {
	switch k {
	case value.KindInt:
		return TypeInt, nil
	case value.KindFloat:
		return TypeFloat, nil
	case value.KindString:
		return TypeString, nil
	case value.KindBool:
		return TypeBool, nil
	default:
		return 0, fmt.Errorf("storage: no column type for %s", k)
	}
}

// column is one typed vector plus a null bitset. Only the slice matching typ
// is populated.
type column struct {
	typ   ColumnType
	ints  []int64
	flts  []float64
	strs  []string
	bools []bool
	nulls bitset
}

func newColumn(typ ColumnType) *column { return &column{typ: typ} }

// len reports the number of rows stored.
func (c *column) len() int {
	switch c.typ {
	case TypeInt:
		return len(c.ints)
	case TypeFloat:
		return len(c.flts)
	case TypeString:
		return len(c.strs)
	case TypeBool:
		return len(c.bools)
	}
	return 0
}

// append adds v at the end. v must be NULL or match the column type.
func (c *column) append(v value.Value) error {
	if v.IsNull() {
		c.nulls.set(c.len())
		switch c.typ {
		case TypeInt:
			c.ints = append(c.ints, 0)
		case TypeFloat:
			c.flts = append(c.flts, 0)
		case TypeString:
			c.strs = append(c.strs, "")
		case TypeBool:
			c.bools = append(c.bools, false)
		}
		return nil
	}
	switch c.typ {
	case TypeInt:
		i, ok := v.AsInt()
		if !ok || v.Kind() == value.KindFloat && v.Float() != float64(i) { // floateq:ok lossless-store check is exact by design
			return fmt.Errorf("storage: cannot store %s %v in INTEGER column", v.Kind(), v)
		}
		c.ints = append(c.ints, i)
	case TypeFloat:
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("storage: cannot store %s in REAL column", v.Kind())
		}
		c.flts = append(c.flts, f)
	case TypeString:
		if v.Kind() != value.KindString {
			return fmt.Errorf("storage: cannot store %s in VARCHAR column", v.Kind())
		}
		c.strs = append(c.strs, v.Str())
	case TypeBool:
		if v.Kind() != value.KindBool {
			return fmt.Errorf("storage: cannot store %s in BOOLEAN column", v.Kind())
		}
		c.bools = append(c.bools, v.Bool())
	}
	return nil
}

// get returns the value at row r.
func (c *column) get(r int) value.Value {
	if c.nulls.get(r) {
		return value.Null
	}
	switch c.typ {
	case TypeInt:
		return value.NewInt(c.ints[r])
	case TypeFloat:
		return value.NewFloat(c.flts[r])
	case TypeString:
		return value.NewString(c.strs[r])
	case TypeBool:
		return value.NewBool(c.bools[r])
	}
	return value.Null
}

// set overwrites the value at row r in place.
func (c *column) set(r int, v value.Value) error {
	if v.IsNull() {
		c.nulls.set(r)
		return nil
	}
	switch c.typ {
	case TypeInt:
		i, ok := v.AsInt()
		if !ok || v.Kind() == value.KindFloat && v.Float() != float64(i) { // floateq:ok lossless-store check is exact by design
			return fmt.Errorf("storage: cannot store %s %v in INTEGER column", v.Kind(), v)
		}
		c.ints[r] = i
	case TypeFloat:
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("storage: cannot store %s in REAL column", v.Kind())
		}
		c.flts[r] = f
	case TypeString:
		if v.Kind() != value.KindString {
			return fmt.Errorf("storage: cannot store %s in VARCHAR column", v.Kind())
		}
		c.strs[r] = v.Str()
	case TypeBool:
		if v.Kind() != value.KindBool {
			return fmt.Errorf("storage: cannot store %s in BOOLEAN column", v.Kind())
		}
		c.bools[r] = v.Bool()
	}
	c.nulls.clear(r)
	return nil
}

// without returns a copy of the column less the rows listed, ascending, in
// drop: the kept runs between them are copied vector to vector, and NULL bits
// are re-set row by row only when the column holds a NULL at all.
func (c *column) without(drop []int32) *column {
	out, n := newColumn(c.typ), c.len()-len(drop)
	switch c.typ {
	case TypeInt:
		out.ints = keptRuns(make([]int64, 0, n), c.ints, drop)
	case TypeFloat:
		out.flts = keptRuns(make([]float64, 0, n), c.flts, drop)
	case TypeString:
		out.strs = keptRuns(make([]string, 0, n), c.strs, drop)
	case TypeBool:
		out.bools = keptRuns(make([]bool, 0, n), c.bools, drop)
	}
	for r, d := 0, 0; len(c.nulls.words) > 0 && r < c.len(); r++ {
		if d < len(drop) && int(drop[d]) == r {
			d++
		} else if c.nulls.get(r) {
			out.nulls.set(r - d)
		}
	}
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

// bitset is a growable bitmap used for null tracking.
type bitset struct {
	words []uint64
}

func (b *bitset) set(i int) {
	w := i >> 6
	for len(b.words) <= w {
		b.words = append(b.words, 0)
	}
	b.words[w] |= 1 << (uint(i) & 63)
}

func (b *bitset) clear(i int) {
	w := i >> 6
	if w < len(b.words) {
		b.words[w] &^= 1 << (uint(i) & 63)
	}
}

func (b *bitset) get(i int) bool { return NullBitmap(b.words).Get(i) }

// NullBitmap is a column's NULL bitmap as the vectorized kernels read it:
// bit r%64 of word r/64 is set when row r is NULL, and a row past the last
// word is not — a column that never held a NULL has no words, so a kernel's
// test inlines to one failed length compare. Read-only, and like the typed
// vectors a snapshot of the rows present when it was taken.
type NullBitmap []uint64

// Get reports whether row r is NULL.
func (b NullBitmap) Get(r int) bool {
	w := r >> 6
	return w < len(b) && b[w]&(1<<(uint(r)&63)) != 0
}
