package engine

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// groupTable maps key tuples to dense int32 ids assigned in first-appearance
// order: the group table of a fold partition, and — built once at plan time
// and only read afterwards — the constant-tuple table of an arm family
// (dispatch.go). Keys live in flat per-id arrays under one of two encodings:
// width > 0 is fixed-width, width int64s — INTEGER values, or VARCHAR codes,
// one per string — plus a NULL mask per key (a NULL component is stored as 0
// with its mask bit set); width 0 keeps the
// value.AppendKey bytes of every key back to back in one arena. Either way
// two tuples get one id exactly when their AppendKey encodings are equal, so
// grouping matches the reference fold.
//
// A key is found by one of three routes (route). Byte keys ("bytes") and
// fixed-width keys ("hash") probe slots, the open-addressing index, probed
// linearly and kept at most three quarters full: a slot holds a key's 32-bit
// hash beside its id + 1 (0 = empty), so a probe compares keys only on a full
// hash match, and doubling the index — from 16 slots; nothing is presized —
// rewrites slots without touching a key. The hash is also kept per id: the
// merge probes a lower partition's table with the hashes the higher one
// already computed. A fixed-width key whose components have known small
// ranges takes the direct route instead: the key is a mixed-radix number,
// its cell, and dir[cell] is its id + 1 — one load, no hash, no key compare
// (bounds).
type groupTable struct {
	width  int
	slots  []uint64
	hashes []uint32
	ints   []int64 // key id's components at [id*width, (id+1)*width)
	masks  []uint8 // bit i set = component i is NULL
	arena  []byte  // byte keys
	ends   []int   // byte key id is arena[ends[id-1]:ends[id]]
	// dir is the direct route's directory, nil on the others: cell → id + 1,
	// 0 = empty, over the layout bounds describes.
	dir []int32
	bounds
	// drop is a test seam, the hash bits to clear: all of them makes the
	// probe sequence and the key compare the only things telling keys apart.
	drop uint32
}

// maxIntKeys bounds the fixed-width route: one mask bit per component.
const maxIntKeys = 8

// len is the number of keys, and the next id.
func (t *groupTable) len() int {
	if t.width > 0 {
		return len(t.masks)
	}
	return len(t.ends)
}

// route names the way t finds a key, for the fold's spans.
func (t *groupTable) route() string {
	switch {
	case t.dir != nil:
		return "direct"
	case t.width > 0:
		return "hash"
	}
	return "bytes"
}

// bounds is the layout of a direct-route directory. Component c of a key
// contributes the digit 0 when NULL and v - lo[c] + 1 otherwise, in radix
// span[c] — its count of values plus the NULL slot — and the digits, first
// component most significant, make the key's cell in [0, cells).
type bounds struct {
	lo    [maxIntKeys]int64
	span  [maxIntKeys]uint64
	cells int
}

// directCells caps a fold's directory: 4 cells per input row, plus 1 024 so
// that a small fold over a small domain goes direct too, and never more than
// 1 Mi cells, 4 MiB of int32 a worker. Every worker zeroes a directory of its
// own, mostly empty when cells outnumber rows, so the per-row factor is where
// that stops paying. Folding 10 K to 300 K rows over one INTEGER key on a
// 2-core Xeon, the direct route beat the hash route up to about 30 cells a
// row on one worker, and up to 3 — but not 10 — on two: 4 sits at the
// two-worker break-even.
func directCells(rows int) int { return min(1<<20, 4*rows+1024) }

// planBounds lays out the directory over key components whose non-NULL
// values lie in [lo[c], hi[c]] — none when hi[c] < lo[c] — and reports
// whether it fits in limit cells. A span too wide for int64 does not.
func planBounds(lo, hi []int64, limit int) (b bounds, ok bool) {
	b.cells = 1
	for c := range lo {
		n := uint64(0) // the component's count of values
		if hi[c] >= lo[c] {
			// hi - lo wraps to the right unsigned difference whatever the signs.
			if n = uint64(hi[c] - lo[c]); n >= uint64(limit) {
				return bounds{}, false
			}
			n++
		}
		b.lo[c], b.span[c] = lo[c], n+1
		if b.cells *= int(n + 1); b.cells > limit {
			return bounds{}, false
		}
	}
	return b, true
}

// newGroupTable returns an empty table of width fixed-width components (0:
// byte keys), on the direct route, with a directory of its own, when b has
// cells.
func newGroupTable(width int, b *bounds) groupTable {
	t := groupTable{width: width}
	if b.cells > 0 {
		t.bounds, t.dir = *b, make([]int32, b.cells)
	}
	return t
}

// digit is component c's digit of the non-NULL value v, and whether v lies
// within the component's bounds. v - lo wraps like planBounds' difference, so
// a value below lo reads as a huge one, out of bounds too.
func (t *groupTable) digit(c int, v int64) (uint64, bool) {
	d := uint64(v - t.lo[c])
	return d + 1, d < t.span[c]-1
}

// cell returns a fixed-width key's directory cell, and false when a
// component lies outside its bounds.
func (t *groupTable) cell(key []int64, mask uint8) (int, bool) {
	cell := uint64(0)
	for c, v := range key {
		d := uint64(0)
		if mask>>c&1 == 0 {
			var in bool
			if d, in = t.digit(c, v); !in {
				return 0, false
			}
		}
		cell = cell*t.span[c] + d
	}
	return int(cell), true
}

// lookupKey returns the id of a fixed-width key on whichever route t is on;
// an absent key is appended under the next id when insert is set — fresh
// reports it — and is id -1 otherwise. An inserted key outside a direct
// table's bounds, which a writer racing the fold's readers alone can make,
// first moves the table to the hash route, every id kept.
func (t *groupTable) lookupKey(key []int64, mask uint8, insert bool) (id int32, fresh bool) {
	if t.dir != nil {
		cell, in := t.cell(key, mask)
		switch {
		case in && (t.dir[cell] != 0 || !insert):
			return t.dir[cell] - 1, false
		case in:
			return t.add(cell, key, mask), true
		case !insert:
			return -1, false
		}
		t.migrate()
	}
	return t.lookupInts(t.hashInts(key, mask), key, mask, insert)
}

// add appends a direct table's key absent from its empty cell, under the next id.
func (t *groupTable) add(cell int, key []int64, mask uint8) int32 {
	t.ints, t.masks = append(grown(t.ints, len(key)), key...), append(grown(t.masks, 1), mask)
	t.dir[cell] = int32(len(t.masks))
	return int32(len(t.masks) - 1)
}

// migrate moves a direct table to the hash route: the index and the per-id
// hashes are built from the stored keys, in id order, so every id stays.
func (t *groupTable) migrate() {
	t.dir = nil
	for id, mask := range t.masks {
		h := t.hashInts(t.ints[id*t.width:(id+1)*t.width], mask)
		t.reserve()
		m := uint32(len(t.slots) - 1)
		at := h & m
		for t.slots[at] != 0 { // the keys are distinct: no compare
			at = (at + 1) & m
		}
		t.claim(at, h)
	}
}

// lookupFrom returns the id in t of key g of from — a table of the same
// fold, so of the same width and bounds — inserting it if new: with the hash
// from stored when both are on a hash route, through lookupKey — by cell, no
// hash, when t is direct — otherwise.
func (t *groupTable) lookupFrom(from *groupTable, g int) (id int32, fresh bool) {
	w := t.width
	switch {
	case w == 0:
		return t.lookupBytes(from.hashes[g], from.byteKey(g), true)
	case t.dir == nil && from.dir == nil:
		return t.lookupInts(from.hashes[g], from.ints[g*w:(g+1)*w], from.masks[g], true)
	}
	return t.lookupKey(from.ints[g*w:(g+1)*w], from.masks[g], true)
}

// byteKey returns the stored byte key of id.
func (t *groupTable) byteKey(id int) []byte {
	lo := 0
	if id > 0 {
		lo = t.ends[id-1]
	}
	return t.arena[lo:t.ends[id]]
}

// The hashes mix a key a word at a time — a component; eight bytes, and the
// last eight again for a ragged tail — by folding the 128-bit product with
// an odd constant (wyhash's step), so that every bit of a word reaches the
// low bits the index uses: integers may differ only above bit 32, and
// AppendKey writes them big-endian.
func mix(x uint64) uint64 {
	hi, lo := bits.Mul64(x^0xC2B2AE3D27D4EB4F, 0x9E3779B97F4A7C15)
	return hi ^ lo
}

func (t *groupTable) hashInts(key []int64, mask uint8) uint32 {
	h := uint64(mask)
	for _, v := range key {
		h = mix(h ^ uint64(v))
	}
	return uint32(h^h>>32) &^ t.drop
}

func (t *groupTable) hashBytes(key []byte) uint32 {
	h, b := uint64(len(key)), key
	for ; len(b) > 8; b = b[8:] {
		h = mix(h ^ binary.LittleEndian.Uint64(b))
	}
	if len(key) >= 8 {
		b = key[len(key)-8:]
		h = mix(h ^ binary.LittleEndian.Uint64(b))
	} else {
		for _, c := range b {
			h = mix(h ^ uint64(c))
		}
	}
	return uint32(h^h>>32) &^ t.drop
}

// lookupInts returns the id of the fixed-width key whose hash is h. An absent
// key is appended under the next id when insert is set — fresh reports it —
// and is id -1 otherwise.
func (t *groupTable) lookupInts(h uint32, key []int64, mask uint8, insert bool) (id int32, fresh bool) {
	if insert {
		t.reserve()
	} else if len(t.slots) == 0 {
		return -1, false
	}
	m := uint32(len(t.slots) - 1)
	at := h & m
	for s := t.slots[at]; s != 0; s = t.slots[at] {
		if id := int(uint32(s)) - 1; uint32(s>>32) == h && t.masks[id] == mask && equalInts(t.ints[id*t.width:], key) {
			return int32(id), false
		}
		at = (at + 1) & m
	}
	if !insert {
		return -1, false
	}
	t.ints, t.masks = append(grown(t.ints, len(key)), key...), append(grown(t.masks, 1), mask)
	return t.claim(at, h), true
}

// equalInts compares key with the stored components at the head of have.
func equalInts(have, key []int64) bool {
	for i, v := range key {
		if have[i] != v {
			return false
		}
	}
	return true
}

// lookupBytes is lookupInts for a byte key, which an insert copies into the
// arena.
func (t *groupTable) lookupBytes(h uint32, key []byte, insert bool) (id int32, fresh bool) {
	if insert {
		t.reserve()
	} else if len(t.slots) == 0 {
		return -1, false
	}
	m := uint32(len(t.slots) - 1)
	at := h & m
	for s := t.slots[at]; s != 0; s = t.slots[at] {
		if id := int(uint32(s)) - 1; uint32(s>>32) == h && bytes.Equal(t.byteKey(id), key) {
			return int32(id), false
		}
		at = (at + 1) & m
	}
	if !insert {
		return -1, false
	}
	t.arena = append(grown(t.arena, len(key)), key...)
	t.ends = append(grown(t.ends, 1), len(t.arena))
	return t.claim(at, h), true
}

// claim gives the key just appended the next id and the empty slot at.
func (t *groupTable) claim(at, h uint32) int32 {
	id := len(t.hashes)
	t.hashes = append(grown(t.hashes, 1), h)
	t.slots[at] = uint64(h)<<32 | uint64(id+1)
	return int32(id)
}

// reserve makes room in the index for one more key.
func (t *groupTable) reserve() {
	if (len(t.hashes)+1)*4 <= len(t.slots)*3 {
		return
	}
	slots := make([]uint64, max(2*len(t.slots), 16))
	m := uint32(len(slots) - 1)
	for _, s := range t.slots {
		if s != 0 {
			at := uint32(s>>32) & m
			for slots[at] != 0 {
				at = (at + 1) & m
			}
			slots[at] = s
		}
	}
	t.slots = slots
}

// grown returns s with room for n more elements. Capacity doubles, so the
// state of g groups costs O(log g) allocations and at most twice its final
// size in bytes allocated, where append's own schedule (1.25× once large)
// allocates up to five times it.
func grown[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	out := make([]T, len(s), max(2*cap(s), len(s)+n, 8))
	copy(out, s)
	return out
}

// extended returns s lengthened by n zero elements. The per-group state
// arrays never shrink, so the capacity beyond len is still as make left it.
func extended[T any](s []T, n int) []T {
	s = grown(s, n)
	return s[:len(s)+n]
}
