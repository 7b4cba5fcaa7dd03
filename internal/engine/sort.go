package engine

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/storage"
	"repro/internal/value"
)

// ORDER BY. A sort never moves rows: sortPerm orders input positions — the
// row ids of a stored table, all of them or the ones a filter selected, or
// the positions of collected columns — and the consumer walks the result.
// Over a stored table the row ids are sorted before anything is projected
// (select.go). A VARCHAR key compares ranks: the distinct strings of the
// codes the sort's positions hold, sorted once per sort. When every key is an
// INTEGER, BOOLEAN or VARCHAR column and there are packMin positions or more,
// the keys of a row are packed, most significant first, above its position
// into one uint64 — a key's code is its offset in the column's range, or its
// rank, 0 for NULL, complemented for DESC — and the packed words are
// radix-sorted on the key bits; otherwise
// one comparator per key reads the typed vector and the NULL bitmap
// (value.Compare over a boxed one). Every route gives value.Compare's order
// — NULL first, then by value — and breaks ties by input position, which is
// the stable sort's result whenever the order is a strict weak one. It is not
// on NaN (value.Compare calls NaN equal to everything): the order of a REAL
// key holding NaN is deterministic but otherwise unspecified (DESIGN.md).

// sortKey orders input positions under one ORDER BY key: cmp compares two,
// and for an INTEGER or BOOLEAN column the cells (one of ints and bools) and
// the NULL bitmap are what the packed route reads instead. A VARCHAR column's
// key holds its codes and their strings; sortPerm ranks them (rankCodes), and
// sets cmp.
type sortKey struct {
	cmp   func(a, b int32) int
	desc  bool
	ints  []int64
	bools []bool
	nulls storage.NullBitmap
	codes []int32
	strs  []string
	rank  []int32 // per code the sort meets, its string's rank among theirs
	ranks int     // how many distinct strings the sort meets
}

// positions returns [0, n): the input of a sort over every row.
func positions(n int) ([]int32, error) {
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("engine: ORDER BY over %d rows exceeds the sortable maximum", n)
	}
	return rowRange(make([]int32, n), 0, n), nil
}

// packMin is the fewest positions sortPerm packs: below it the comparators
// cost less than the passes over the keys and the two word buffers.
const packMin = 256

// sortPerm puts ids, ascending input positions, in the order the keys give
// them, in place: packed where the keys allow, by comparator otherwise.
func sortPerm(ids []int32, keys []sortKey) {
	for i := range keys {
		if keys[i].cmp == nil {
			keys[i].rankCodes(ids)
		}
	}
	if len(ids) >= packMin && packedSort(ids, keys) {
		return
	}
	slices.SortFunc(ids, func(a, b int32) int {
		for i := range keys {
			if c := keys[i].cmp(a, b); c != 0 {
				if keys[i].desc {
					return -c
				}
				return c
			}
		}
		return int(a - b)
	})
}

// packedSort sorts ids, which ascend, by packed keys, reporting false — ids
// untouched — when a key is not a packable column or the codes and the
// position do not fit 64 bits together.
func packedSort(ids []int32, keys []sortKey) bool {
	if len(ids) < 2 {
		return true
	}
	for _, k := range keys {
		if k.ints == nil && k.bools == nil && k.rank == nil {
			return false
		}
	}
	// One pass per key reads its range over the rows being sorted.
	type span struct {
		lo   int64
		top  uint64 // the largest code: the range's width plus one
		bits int
	}
	spans := make([]span, len(keys))
	posBits := bits.Len(uint(len(ids) - 1))
	total := posBits
	for ki, k := range keys {
		var lo, hi int64
		switch {
		case k.bools != nil:
			hi = 1
		case k.rank != nil:
			hi = max(int64(k.ranks)-1, 0)
		default:
			seen := false
			for _, r := range ids {
				if v := k.ints[r]; k.nulls.Get(int(r)) {
				} else if !seen {
					lo, hi, seen = v, v, true
				} else if v < lo {
					lo = v
				} else if v > hi {
					hi = v
				}
			}
		}
		width := uint64(hi) - uint64(lo) // exact modulo 2^64: hi >= lo
		if width == math.MaxUint64 {
			return false
		}
		spans[ki] = span{lo: lo, top: width + 1, bits: bits.Len64(width + 1)}
		if total += spans[ki].bits; total > 64 {
			return false
		}
	}
	packed := make([]uint64, len(ids))
	for i, r := range ids {
		var word uint64
		for ki := range keys {
			k, s := &keys[ki], &spans[ki]
			var code uint64 // NULL
			switch {
			case k.nulls.Get(int(r)):
			case k.rank != nil:
				code = uint64(k.rank[k.codes[r]]) + 1
			case k.bools == nil:
				code = uint64(k.ints[r]) - uint64(s.lo) + 1
			case k.bools[r]:
				code = 2
			default:
				code = 1
			}
			if k.desc {
				code = s.top - code
			}
			word = word<<s.bits | code
		}
		packed[i] = word<<posBits | uint64(i)
	}
	packed = radixSort(packed, posBits, total)
	// ids ascend, so the sorted positions can be read back through a copy of
	// them only; packed is as long, and done with its high bits.
	mask := uint64(1)<<posBits - 1
	for i, w := range packed {
		packed[i] = uint64(ids[w&mask])
	}
	for i, r := range packed {
		ids[i] = int32(r)
	}
	return true
}

// radixSort sorts words by their bits [lo, hi), least significant byte first.
// Every pass is stable and the words arrive in the order of the bits below lo
// — their positions — so those need no pass of their own. It returns the
// sorted slice: words, or the scratch slice of the same length.
func radixSort(words []uint64, lo, hi int) []uint64 {
	scratch := make([]uint64, len(words))
	for shift := lo; shift < hi; shift += 8 {
		var starts [257]int
		for _, w := range words {
			starts[w>>shift&0xff+1]++
		}
		for d := 1; d < len(starts); d++ {
			starts[d] += starts[d-1]
		}
		for _, w := range words {
			d := w >> shift & 0xff
			scratch[starts[d]] = w
			starts[d]++
		}
		words, scratch = scratch, words
	}
	return words
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

// rankCodes ranks the strings of the codes at the non-NULL positions among
// ids, once: a code's rank is its string's place among theirs, so comparing
// ranks compares strings. It costs a sort of the distinct strings met, and a
// rank array as long as the dictionary.
func (k *sortKey) rankCodes(ids []int32) {
	rank := make([]int32, len(k.strs)) // 1 marks a code met, until ranked
	var met []int32
	for _, r := range ids {
		if c := k.codes[r]; !k.nulls.Get(int(r)) && rank[c] == 0 {
			rank[c] = 1
			met = append(met, c)
		}
	}
	slices.SortFunc(met, func(a, b int32) int { return strings.Compare(k.strs[a], k.strs[b]) })
	for i, c := range met {
		rank[c] = int32(i)
	}
	codes := k.codes
	k.rank, k.ranks = rank, len(met)
	k.cmp = byValue(k.nulls, func(a, b int32) int { return cmp.Compare(rank[codes[a]], rank[codes[b]]) })
}

// vectorCmp compares row ids of one typed column vector.
func vectorCmp[T int64 | float64](vals []T, nulls storage.NullBitmap) func(a, b int32) int {
	return byValue(nulls, func(a, b int32) int {
		switch x, y := vals[a], vals[b]; {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	})
}

// byValue orders row ids NULL first, and two non-NULL ones by by. A column
// without a NULL — every key a generated plan sorts by — is compared without
// consulting the bitmap.
func byValue(nulls storage.NullBitmap, by func(a, b int32) int) func(a, b int32) int {
	if len(nulls.Trim()) == 0 {
		return by
	}
	return func(a, b int32) int {
		if an, bn := nulls.Get(int(a)), nulls.Get(int(b)); an || bn {
			return nullsFirst(an, bn)
		}
		return by(a, b)
	}
}

// columnKey is the sort key over positions of the vector c: a stored
// column's row ids, or a collected column's positions.
func columnKey(c *storage.Vector, desc bool) sortKey {
	k := sortKey{desc: desc, nulls: c.Nulls}
	switch {
	case c.Boxed:
		k.cmp = func(a, b int32) int { return value.Compare(c.Vals[a], c.Vals[b]) }
	case c.Type == storage.TypeInt:
		k.ints, k.cmp = c.Ints, vectorCmp(c.Ints, c.Nulls)
	case c.Type == storage.TypeFloat:
		k.cmp = vectorCmp(c.Flts, c.Nulls)
	case c.Type == storage.TypeString:
		k.codes, k.strs = c.Codes, c.Dict.Strs()
	default:
		k.bools = c.Bools
		k.cmp = func(a, b int32) int { return value.Compare(c.Value(int(a)), c.Value(int(b))) }
	}
	return k
}
