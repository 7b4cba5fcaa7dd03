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
// width > 0 is the fixed-width route, width int64s plus a NULL mask per key
// (a NULL component is stored as 0 with its mask bit set); width 0 keeps the
// value.AppendKey bytes of every key back to back in one arena. Either way
// two tuples get one id exactly when their AppendKey encodings are equal, so
// grouping matches the reference fold.
//
// slots is the open-addressing index, probed linearly and kept at most three
// quarters full: a slot holds a key's 32-bit hash beside its id + 1 (0 =
// empty), so a probe compares keys only on a full hash match, and doubling
// the index — from 16 slots; nothing is presized — rewrites slots without
// touching a key. The hash is also kept per id: the merge probes a lower
// partition's table with the hashes the higher one already computed.
type groupTable struct {
	width  int
	slots  []uint64
	hashes []uint32
	ints   []int64 // key id's components at [id*width, (id+1)*width)
	masks  []uint8 // bit i set = component i is NULL
	arena  []byte  // byte keys
	ends   []int   // byte key id is arena[ends[id-1]:ends[id]]
	// drop is a test seam, the hash bits to clear: all of them makes the
	// probe sequence and the key compare the only things telling keys apart.
	drop uint32
}

// maxIntKeys bounds the fixed-width route: one mask bit per component.
const maxIntKeys = 8

// len is the number of keys, and the next id.
func (t *groupTable) len() int { return len(t.hashes) }

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
