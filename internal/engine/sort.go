package engine

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/storage"
	"repro/internal/value"
)

// ORDER BY. A sort never moves rows: it orders an []int32 permutation of the
// input positions with one comparator per key and the consumer walks the
// permutation. Over a stored table the comparators read the key columns'
// typed vectors and null bitmaps, so the row ids are sorted before anything
// is projected (select.go); over collected rows they call value.Compare.
// Both give value.Compare's order — NULL first, then by value — and break
// ties by input position, which is the stable sort's result whenever the
// order is a strict weak one. It is not on NaN (value.Compare calls NaN equal
// to everything): the order of a REAL key holding NaN is deterministic but
// otherwise unspecified (DESIGN.md).

// sortKey orders two input positions under one ORDER BY key.
type sortKey func(a, b int32) int

// direction turns an ascending comparator into the key's.
func (k sortKey) direction(desc bool) sortKey {
	if !desc {
		return k
	}
	return func(a, b int32) int { return k(b, a) }
}

// sortPerm returns the positions [0, n) in the order the keys give them.
func sortPerm(n int, keys []sortKey) ([]int32, error) {
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("engine: ORDER BY over %d rows exceeds the sortable maximum", n)
	}
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		for _, k := range keys {
			if c := k(a, b); c != 0 {
				return c
			}
		}
		return int(a - b)
	})
	return perm, nil
}

// nullsFirst orders two positions of which at least one is NULL.
func nullsFirst(aNull, bNull bool) int {
	switch {
	case aNull && bNull:
		return 0
	case aNull:
		return -1
	}
	return 1
}

// vectorCmp compares row ids [0, n) of one typed column vector. A column
// without a NULL among them — every key a generated plan sorts by — is
// compared without consulting the bitmap.
func vectorCmp[T int64 | float64 | string](vals []T, isNull func(int) bool, n int) sortKey {
	byValue := func(a, b int32) int {
		switch x, y := vals[a], vals[b]; {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	}
	if !anyNull(isNull, n) {
		return byValue
	}
	return func(a, b int32) int {
		if an, bn := isNull(int(a)), isNull(int(b)); an || bn {
			return nullsFirst(an, bn)
		}
		return byValue(a, b)
	}
}

func anyNull(isNull func(int) bool, n int) bool {
	for r := 0; r < n; r++ {
		if isNull(r) {
			return true
		}
	}
	return false
}

// columnCmp compares row ids of t by column col.
func columnCmp(t *storage.Table, col int) sortKey {
	n := t.NumRows()
	if vals, isNull, ok := t.IntColumn(col); ok {
		return vectorCmp(vals, isNull, n)
	}
	if vals, isNull, ok := t.FloatColumn(col); ok {
		return vectorCmp(vals, isNull, n)
	}
	if vals, isNull, ok := t.StringColumn(col); ok {
		return vectorCmp(vals, isNull, n)
	}
	get := t.CellGetter(col) // BOOLEAN
	return func(a, b int32) int { return value.Compare(get(int(a)), get(int(b))) }
}

// rowsCmp compares collected rows by column col.
func rowsCmp(rows [][]value.Value, col int) sortKey {
	return func(a, b int32) int { return value.Compare(rows[a][col], rows[b][col]) }
}
