// Package index implements secondary hash indexes over encoded value keys.
// The paper's Vpct evaluation joins the fine aggregate Fk with the coarse
// totals Fj on their common subkey D1..Dj; building identical hash indexes
// on that subkey on both tables is one of the optimizations Table 4 studies.
// Indexes map an encoded key (see value.EncodeKey) to the row ids holding it.
package index

import (
	"fmt"
	"slices"

	"repro/internal/value"
)

// Index is a hash index over one or more columns of a table. The index does
// not know about tables; the owner feeds it (key-tuple, row id) pairs and
// keeps it in sync on updates. Row ids are dense ints as assigned by the
// storage layer.
type Index struct {
	name    string
	columns []string // indexed column names, for catalog display
	// buckets maps an encoded key to its row list through a pointer, so a row
	// joining an existing key appends in place — no map assignment, which
	// would allocate the key string again. A row list is kept ascending: what
	// building the index in row order produces, so a row moved between keys by
	// an in-place update, or moved back by its undo, leaves the index exactly
	// as a rebuild would.
	buckets map[string]*[]int
	entries int
	// buf is the writer's encoding scratch. Writes are serialized by the
	// owner; lookups may run concurrently and never touch it.
	buf []byte
}

// New creates an empty index named name over the given columns.
func New(name string, columns []string) *Index {
	return &Index{
		name:    name,
		columns: append([]string(nil), columns...),
		buckets: make(map[string]*[]int),
	}
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Columns returns the indexed column names in index order.
func (ix *Index) Columns() []string { return append([]string(nil), ix.columns...) }

// Len reports the number of (key,row) entries in the index.
func (ix *Index) Len() int { return ix.entries }

// encode leaves the key encoding of vals in the index's scratch buffer.
func (ix *Index) encode(vals []value.Value) []byte {
	ix.buf = ix.buf[:0]
	for _, v := range vals {
		ix.buf = value.AppendKey(ix.buf, v)
	}
	return ix.buf
}

// Add records that row rid holds the key tuple vals. Only a key not yet
// present allocates (its string and its row list); a row id above every one
// the key holds — every append — lands at the end without a search.
func (ix *Index) Add(vals []value.Value, rid int) {
	k := ix.encode(vals)
	ix.entries++
	rows, ok := ix.buckets[string(k)]
	if !ok {
		ix.buckets[string(k)] = &[]int{rid}
		return
	}
	at := len(*rows)
	if at > 0 && (*rows)[at-1] > rid {
		at, _ = slices.BinarySearch(*rows, rid)
	}
	*rows = slices.Insert(*rows, at, rid)
}

// Remove forgets the (vals, rid) entry. It is a no-op if the entry is not
// present; it returns whether an entry was removed.
func (ix *Index) Remove(vals []value.Value, rid int) bool {
	k := ix.encode(vals)
	rows, ok := ix.buckets[string(k)]
	if !ok {
		return false
	}
	i, found := slices.BinarySearch(*rows, rid)
	if !found {
		return false
	}
	if *rows = slices.Delete(*rows, i, i+1); len(*rows) == 0 {
		delete(ix.buckets, string(k))
	}
	ix.entries--
	return true
}

// Lookup returns the row ids holding the key tuple vals. The returned slice
// is owned by the index and must not be mutated.
func (ix *Index) Lookup(vals []value.Value) []int {
	return ix.LookupKey(value.EncodeKey(vals...))
}

// LookupKey returns the row ids for an already-encoded key. The conversion in
// the map index expression does not allocate, so a probe loop can reuse one
// key buffer for every row.
func (ix *Index) LookupKey(key []byte) []int {
	if rows, ok := ix.buckets[string(key)]; ok {
		return *rows
	}
	return nil
}

// String summarizes the index for catalog listings.
func (ix *Index) String() string {
	return fmt.Sprintf("INDEX %s (%d keys, %d entries)", ix.name, len(ix.buckets), ix.entries)
}
