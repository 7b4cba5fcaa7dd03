// Package storage implements the in-memory columnar table substrate the
// query engine runs on: typed column vectors with null bitmaps, tables with
// schemas and in-place update (the paper's UPDATE-based strategies depend on
// it), and a catalog of named tables. The layout favors the access patterns
// of percentage queries: full sequential scans, append-heavy INSERT … SELECT
// into temporary tables, and keyed updates.
package storage

import (
	"fmt"
	"slices"

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

// Kind maps the column type to the runtime value kind stored in it; an
// unknown type's is KindNull.
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

// fits reports why x does not fit a column of type t: NULL fits any, an
// INTEGER column takes an integer or an integral float, a REAL column any
// number, the others only their own kind.
func (t ColumnType) fits(x value.Value) error {
	switch k := x.Kind(); {
	case k == value.KindNull || k == t.Kind() || t == TypeFloat && k == value.KindInt:
		return nil
	case t == TypeInt:
		if i, ok := x.AsInt(); ok && x.Float() == float64(i) { // floateq:ok lossless-store check is exact by design
			return nil
		}
		return fmt.Errorf("storage: cannot store %s %v in INTEGER column", k, x)
	}
	return fmt.Errorf("storage: cannot store %s in %s column", x.Kind(), t)
}

// NullBitmap is a typed vector's NULL bitmap as the vectorized kernels read
// it: bit r%64 of word r/64 is set when cell r is NULL, and a cell past the
// last word is not. Get inlines but is not free: a loop that calls it pays a
// compare and a branch a cell, and a load when the bitmap has words — in a CPU
// profile of a fold over 300 K NULL-free rows, 0.6 s flat of the key reader's
// 4.4 s. So a kernel takes a loop without the test when a bitmap has no
// words: a vector that never held a NULL, or one Trim left empty.
type NullBitmap []uint64

// Trim returns b less its trailing zero words — nil when no cell is NULL, as
// after an UPDATE that overwrote every NULL or a rolled-back append of some —
// which Get reads alike.
func (b NullBitmap) Trim() NullBitmap {
	n := len(b)
	for n > 0 && b[n-1] == 0 {
		n--
	}
	if n == 0 {
		return nil
	}
	return b[:n]
}

// Get reports whether cell r is NULL.
func (b NullBitmap) Get(r int) bool {
	w := r >> 6
	return w < len(b) && b[w]&(1<<(uint(r)&63)) != 0
}

// set marks cell r NULL, first growing the bitmap with clear words to at
// least words long when r is past its end.
func (b *NullBitmap) set(r, words int) {
	w := r >> 6
	if n := len(*b); w >= n {
		words = max(words, w+1)
		*b = slices.Grow(*b, words-n)[:words]
		clear((*b)[n:])
	}
	(*b)[w] |= 1 << (uint(r) & 63)
}

// clear marks cell r not NULL.
func (b NullBitmap) clear(r int) {
	if w := r >> 6; w < len(b) {
		b[w] &^= 1 << (uint(r) & 63)
	}
}

// clearFrom marks every cell from r on not NULL.
func (b NullBitmap) clearFrom(r int) {
	if w := r >> 6; w < len(b) {
		b[w] &= 1<<(uint(r)&63) - 1
		clear(b[w+1:])
	}
}
