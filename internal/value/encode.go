package value

import (
	"encoding/binary"
	"math"
)

// Key encoding: values are serialized to a byte string so that tuples can be
// used directly as Go map keys. The engine keys on fixed-width slots; this
// encoding is the tests' oracle of key equality (the group table's fuzzer,
// the reference hash join). Two tuples
// encode to the same bytes exactly when they have the same kinds and SQL
// equality holds component by component, NaN aside (see KeyBits): every value
// is prefixed with a kind tag, variable-length payloads carry their length,
// and integers and floats are encoded distinctly even when numerically equal.

// encTag mirrors Kind but is independent so that the encoding stays stable
// if kinds are renumbered.
const (
	encNull   byte = 0
	encInt    byte = 1
	encFloat  byte = 2
	encString byte = 3
	encBool   byte = 4
)

// AppendKey appends the key encoding of v to dst and returns the extended
// slice.
func AppendKey(dst []byte, v Value) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, encNull)
	case KindInt:
		dst = append(dst, encInt)
		return binary.BigEndian.AppendUint64(dst, uint64(v.i))
	case KindFloat:
		return binary.BigEndian.AppendUint64(append(dst, encFloat), KeyBits(v.f))
	case KindString:
		dst = append(dst, encString)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(v.s)))
		return append(dst, v.s...)
	case KindBool:
		dst = append(dst, encBool, byte(v.i))
		return dst
	default:
		panic("value: AppendKey on unknown kind")
	}
}

// KeyBits is the float's bit pattern, except that -0.0 encodes as +0.0:
// 0.0 = -0.0 is true, so GROUP BY, DISTINCT, count(DISTINCT) and hash
// joins must put the two in one bucket. Every NaN encodes as math.NaN(),
// one key, although Compare calls a NaN equal to every number. The engine's
// fixed-width keys hold a REAL as these bits too.
func KeyBits(f float64) uint64 {
	switch {
	case f == 0: // floateq:ok exactly the two zeros
		f = 0
	case math.IsNaN(f):
		f = math.NaN()
	}
	return math.Float64bits(f)
}

// EncodeKey encodes a tuple of values into a fresh byte slice. The result is
// suitable for use as a map key after conversion to string.
func EncodeKey(vals ...Value) []byte {
	dst := make([]byte, 0, 16*len(vals))
	for _, v := range vals {
		dst = AppendKey(dst, v)
	}
	return dst
}
