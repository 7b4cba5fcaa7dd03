package storage

import (
	"sync"
	"sync/atomic"
)

// Dict is the dictionary a VARCHAR vector's codes index: its distinct strings
// in first-appearance order, a string's code its position. It only grows, so
// a code once given means one string for good, and every vector that shares
// the dictionary — a table's column, the batches gathered from it, a table
// filled from those batches — reads its codes through it without a copy.
// Only the vector that owns it adds strings (Vector.code); another copies it
// first.
//
// Readers need no lock: the strings sit in an array the writer never
// rewrites below the published count, and a grown array is published whole
// before the count that needs it. Writers — and lookups by string, which read
// the index the writers extend — hold mu. A nil *Dict is the empty
// dictionary.
type Dict struct {
	mu    sync.Mutex
	index map[string]int32
	arr   atomic.Pointer[[]string] // len == cap; entries from n on are unset
	n     atomic.Int32
}

// Len is the number of strings, so every code lies in [0, Len()).
func (d *Dict) Len() int {
	if d == nil {
		return 0
	}
	return int(d.n.Load())
}

// Strs returns the strings in code order as they stand: a snapshot, valid for
// every code read before the call.
func (d *Dict) Strs() []string {
	n := d.Len()
	if n == 0 {
		return nil
	}
	return (*d.arr.Load())[:n]
}

// Str returns the string of code c.
func (d *Dict) Str(c int32) string { return (*d.arr.Load())[c] }

// Code returns the code of s, and false when the dictionary lacks it.
func (d *Dict) Code(s string) (int32, bool) {
	if d == nil {
		return 0, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.index[s]
	return c, ok
}

// clone returns a new dictionary of d's strings under the same codes.
func (d *Dict) clone() *Dict {
	strs := d.Strs()
	c := &Dict{index: make(map[string]int32, len(strs))}
	for _, s := range strs {
		c.intern(s)
	}
	return c
}

// intern returns the code of s, adding it if new.
func (d *Dict) intern(s string) int32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if c, ok := d.index[s]; ok {
		return c
	}
	if d.index == nil {
		d.index = make(map[string]int32)
	}
	n := d.n.Load()
	var arr []string
	if p := d.arr.Load(); p != nil {
		arr = *p
	}
	if int(n) == len(arr) {
		grown := make([]string, max(2*len(arr), 8))
		copy(grown, arr)
		arr = grown
		d.arr.Store(&arr)
	}
	arr[n] = s
	d.index[s] = n
	d.n.Store(n + 1)
	return n
}
