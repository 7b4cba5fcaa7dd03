package engine

import (
	"math/bits"
)

// groupTable maps key tuples to dense int32 ids assigned in first-appearance
// order: the group table of a fold partition, the set behind a
// count(DISTINCT) or the collected tail's DISTINCT, a join index's keys and —
// built once at plan time and only read afterwards — the constant-tuple table
// of an arm family (dispatch.go). Every key is fixed-width, laid out by
// keys.go: width int64 slots and ms mask bytes — a NULL bit per slot (a NULL
// component is 0 with its bit set), then, where a slot can hold a REAL, as
// many sign bits, which the compare and the hash skip: a REAL's slot is its
// canonical bits, and the sign keeps a first-seen -0.0 for display. A key in
// flight — looked up, read into a chunk buffer, or put back (key) — is stride
// words: its slots, then a word for each mask byte. Two tuples get one id
// exactly when their value.AppendKey encodings would be equal, so grouping
// matches the reference fold.
//
// A table is on one of two routes (route), and keeps its keys the route's
// way. A key of at most maxIntKeys INTEGER, VARCHAR or BOOLEAN components
// with known small ranges takes the direct route: the key is a mixed-radix
// number, its cell (bounds), dir[cell] is its id + 1 — one load, no hash, no
// key compare — and cell[id] is the key: a group is made, merged and
// emitted from its cell, its slots decoded only when asked for. Any other key
// takes the hash route, which stores each key's slots in ints and mask bytes
// in masks and probes slots, the open-addressing index, probed linearly and
// kept at most three quarters full: a slot holds a key's 32-bit hash beside
// its id + 1 (0 = empty), so a probe compares keys only on a full hash match,
// and doubling the index — from 16 slots; nothing is presized — rewrites
// slots without touching a key. The hash is also kept per id: the merge
// probes a lower partition's table with the hashes the higher one already
// computed.
type groupTable struct {
	layout
	slots  []uint64
	hashes []uint32
	ints   []int64 // hash route: key id's slots at [id*width, (id+1)*width)
	masks  []uint8 // hash route: key id's mask bytes at [id*ms, (id+1)*ms)
	// dict codes the values of the coded slots; flight is the scratch a
	// stored key is put back in flight in (key).
	dict   *keyDict
	flight []int64
	// dir is the direct route's directory, nil on the hash route: cell → id +
	// 1, 0 = empty, over the layout bounds describes; cell[id] is key id's
	// cell.
	dir, cell []int32
	bounds
	// drop is a test seam, the hash bits to clear: all of them makes the
	// probe sequence and the key compare the only things telling keys apart.
	drop uint32
}

// maxIntKeys bounds the direct route: one mask byte holds its NULL bits.
const maxIntKeys = 8

// len is the number of keys, and the next id; 0 for the zero table.
func (t *groupTable) len() int {
	if t.dir != nil {
		return len(t.cell)
	}
	return len(t.masks) / max(1, t.ms)
}

// route names the way t finds a key, for the fold's spans.
func (t *groupTable) route() string {
	if t.dir != nil {
		return "direct"
	}
	return "hash"
}

// bounds is the layout of a direct-route directory. Component c of a key
// contributes the digit 0 when NULL and v - lo[c] + 1 otherwise, in radix
// span[c] — its count of values plus the NULL slot — and the digits, first
// component most significant, make the key's cell in [0, cells): component
// c's digit is (cell / below[c]) % span[c], below[c] the product of the
// spans after it.
type bounds struct {
	lo          [maxIntKeys]int64
	span, below [maxIntKeys]uint64
	cells       int
}

// directCells caps a fold's directory: 4 cells per input row, plus 1 024 so
// that a small fold over a small domain goes direct too, and never more than
// 1 Mi cells, 4 MiB of int32 a worker. Every worker zeroes a directory of its
// own, mostly empty when cells outnumber rows, so the per-row factor is where
// that stops paying. Folding 10 K to 300 K rows over one INTEGER key on a
// 2-core Xeon, the direct route — each group one cell — beat the hash route
// up to 6 cells a row on one worker and on two; at 10 the two were about
// even on both, and at 30 (10 K rows) direct still won on one worker but lost
// on two: 4 sits below the two-worker break-even.
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
	for c, below := len(lo)-1, uint64(1); c >= 0; c-- {
		b.below[c], below = below, below*b.span[c]
	}
	return b, true
}

// newGroupTable returns an empty table of keys laid out by l, coding values
// in dict, on the direct route, with a directory of its own, when b has
// cells.
func newGroupTable(l layout, b *bounds, dict *keyDict) groupTable {
	t := groupTable{layout: l, dict: dict}
	if b.cells > 0 {
		t.bounds, t.dir = *b, make([]int32, b.cells)
	}
	return t
}

// digit is component c's digit of the non-NULL value v, and whether v lies
// within the component's bounds.
func (t *groupTable) digit(c int, v int64) (uint64, bool) { return digitOf(v, t.lo[c], t.span[c]) }

// digitOf is the digit of the non-NULL v in a component laid out from lo over
// span digits, 0 being NULL's: v - lo + 1. v - lo wraps like planBounds' difference, so a
// value below lo reads as a huge one, out of bounds too.
func digitOf(v, lo int64, span uint64) (uint64, bool) {
	d := uint64(v - lo)
	return d + 1, d < span-1
}

// cellOf returns a key's directory cell — its slots, and its first NULL mask
// byte — and false when a component lies outside its bounds.
func (t *groupTable) cellOf(key []int64, mask uint8) (int, bool) {
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

// lookupKey returns the id of a key in flight on whichever route t is on; an
// absent key is appended under the next id when insert is set — fresh
// reports it — and is id -1 otherwise. On the direct route a key outside the
// bounds is on no row the fold's plan counted: a find of one is id -1, an
// insert a bug (outOfBounds).
func (t *groupTable) lookupKey(key []int64, insert bool) (id int32, fresh bool) {
	if t.dir == nil {
		return t.lookupHash(t.hash(key), key, insert)
	}
	cell, in := t.cellOf(key[:t.width], uint8(key[t.width]))
	switch {
	case !in && insert:
		panic(outOfBounds)
	case !in:
		return -1, false
	case t.dir[cell] != 0 || !insert:
		return t.dir[cell] - 1, false
	}
	return t.addCell(cell), true
}

// outOfBounds is the invariant an insert outside a directory's bounds
// breaks: the bounds cover every row the plan counted, and a fold reads no
// other. The statement's recovery contains the panic (PCT206).
const outOfBounds = "engine: key outside the group directory's bounds"

// addCell gives the key of cell, absent from the directory, the next id.
func (t *groupTable) addCell(cell int) int32 {
	t.cell = append(grown(t.cell, 1), int32(cell))
	t.dir[cell] = int32(len(t.cell))
	return int32(len(t.cell) - 1)
}

// store appends a key in flight under the next id on the hash route.
func (t *groupTable) store(key []int64) {
	t.ints, t.masks = append(grown(t.ints, t.width), key[:t.width]...), grown(t.masks, t.ms)
	for _, m := range key[t.width:t.stride] {
		t.masks = append(t.masks, uint8(m))
	}
}

// key returns key id in flight, in t's scratch: decoded from its cell on the
// direct route, its stored slots and mask bytes on the hash route.
func (t *groupTable) key(id int) []int64 {
	if t.dir != nil {
		return t.decode(t.cell[id])
	}
	t.flight = append(t.flight[:0], t.ints[id*t.width:(id+1)*t.width]...)
	for _, m := range t.masks[id*t.ms : (id+1)*t.ms] {
		t.flight = append(t.flight, int64(m))
	}
	return t.flight
}

// decode puts the key of cell in flight, in t's scratch: a component's digit
// d is NULL when 0 and lo + d - 1 otherwise.
func (t *groupTable) decode(cell int32) []int64 {
	t.flight = append(t.flight[:0], make([]int64, t.stride)...)
	for c := range t.width {
		if d := uint64(cell) / t.below[c] % t.span[c]; d == 0 {
			t.flight[t.width] |= 1 << c
		} else {
			t.flight[c] = t.lo[c] + int64(d) - 1
		}
	}
	return t.flight
}

// direct moves a hash-route table, every key of which lies within b, to the
// direct route over b, every id kept.
func (t *groupTable) direct(b *bounds) {
	d := groupTable{layout: t.layout, dict: t.dict, bounds: *b, dir: make([]int32, b.cells)}
	for id := range t.len() {
		key := t.key(id)
		cell, _ := d.cellOf(key[:t.width], uint8(key[t.width]))
		d.addCell(cell)
	}
	*t = d
}

// lookupFrom returns the id in t of key g of from — a table of the same
// layout and bounds, so on the same route — inserting it if new: by from's
// cell, one load, on the direct route; with the hash from stored on the hash
// route, unless the key has slots coded in another dictionary: those are
// recoded into t's first, and hashed anew.
func (t *groupTable) lookupFrom(from *groupTable, g int) (id int32, fresh bool) {
	if t.dir != nil {
		cell := from.cell[g]
		if id := t.dir[cell]; id != 0 {
			return id - 1, false
		}
		return t.addCell(int(cell)), true
	}
	key, h := from.key(g), from.hashes[g]
	if len(t.coded) > 0 && from.dict != t.dict {
		for _, s := range t.coded {
			key[s] = t.dict.code(from.dict.vals[key[s]], true)
		}
		h = t.hash(key)
	}
	return t.lookupHash(h, key, true)
}

// The hash mixes a key in flight a word at a time — its first NULL mask
// word, then each slot; the NULL bits of a key wider than eight slots past
// the first byte are left to the compare — by folding the 128-bit product
// with an odd constant (wyhash's step), so that every bit of a word reaches
// the low bits the index uses: integers may differ only above bit 32.
func mix(x uint64) uint64 {
	hi, lo := bits.Mul64(x^0xC2B2AE3D27D4EB4F, 0x9E3779B97F4A7C15)
	return hi ^ lo
}

func (t *groupTable) hash(key []int64) uint32 {
	h := uint64(key[t.width])
	for _, v := range key[:t.width] {
		h = mix(h ^ uint64(v))
	}
	return uint32(h^h>>32) &^ t.drop
}

// lookupHash returns the id of the key in flight whose hash is h on the hash
// route. An absent key is appended under the next id when insert is set —
// fresh reports it — and is id -1 otherwise.
func (t *groupTable) lookupHash(h uint32, key []int64, insert bool) (id int32, fresh bool) {
	if insert {
		t.reserve()
	} else if len(t.slots) == 0 {
		return -1, false
	}
	m := uint32(len(t.slots) - 1)
	at := h & m
	for s := t.slots[at]; s != 0; s = t.slots[at] {
		if id := int(uint32(s)) - 1; uint32(s>>32) == h && t.masks[id*t.ms] == uint8(key[t.width]) && t.equal(id, key) {
			return int32(id), false
		}
		at = (at + 1) & m
	}
	if !insert {
		return -1, false
	}
	t.store(key)
	return t.claim(at, h), true
}

// equal compares a key in flight whose first NULL mask byte matches the
// stored key id's with it: the rest of its NULL bits, then its slots.
func (t *groupTable) equal(id int, key []int64) bool {
	for j := 1; j < t.mb; j++ {
		if t.masks[id*t.ms+j] != uint8(key[t.width+j]) {
			return false
		}
	}
	have := t.ints[id*t.width:]
	for i, v := range key[:t.width] {
		if have[i] != v {
			return false
		}
	}
	return true
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
