package value

import (
	"math"
	"testing"
	"testing/quick"
)

// TestEncodeKeyFollowsSQLEquality: two tuples encode alike exactly when they
// have the same kinds and SQL equality holds component by component — the
// REAL zeros alike, every NaN alike, 1 apart from 1.0, the empty string apart
// from NULL.
func TestEncodeKeyFollowsSQLEquality(t *testing.T) {
	negZero, otherNaN := math.Copysign(0, -1), math.Float64frombits(math.Float64bits(math.NaN())^1<<63|0xBEEF)
	same := [][2][]Value{
		{{}, {}},
		{{Null}, {Null}},
		{{NewInt(-1), NewInt(1)}, {NewInt(-1), NewInt(1)}},
		{{NewFloat(3.25), NewString("abc"), NewBool(true)}, {NewFloat(3.25), NewString("abc"), NewBool(true)}},
		{{NewString("a\x00b"), NewInt(42)}, {NewString("a\x00b"), NewInt(42)}},
		{{NewFloat(0)}, {NewFloat(negZero)}},
		{{NewFloat(math.NaN())}, {NewFloat(otherNaN)}},
	}
	for _, p := range same {
		if a, b := string(EncodeKey(p[0]...)), string(EncodeKey(p[1]...)); a != b {
			t.Errorf("tuples %v and %v encode differently: %x vs %x", p[0], p[1], a, b)
		}
	}
}

func TestEncodeInjective(t *testing.T) {
	// Pairs of distinct tuples that must encode differently, including
	// classic ambiguity traps.
	pairs := [][2][]Value{
		{{NewString("ab"), NewString("c")}, {NewString("a"), NewString("bc")}},
		{{NewInt(1)}, {NewFloat(1)}},
		{{Null}, {NewString("")}},
		{{NewBool(false)}, {NewInt(0)}},
		{{NewString("")}, {}},
		{{Null, Null}, {Null}},
		{{NewFloat(0)}, {Null}},
		{{NewInt(0)}, {Null}},
	}
	for _, p := range pairs {
		a, b := string(EncodeKey(p[0]...)), string(EncodeKey(p[1]...))
		if a == b {
			t.Errorf("tuples %v and %v encode identically", p[0], p[1])
		}
	}
}

func TestEncodeInjectiveProperty(t *testing.T) {
	mk := func(sel uint8, i int64, f float64, s string) Value {
		switch sel % 5 {
		case 0:
			return Null
		case 1:
			return NewInt(i)
		case 2:
			return NewFloat(f)
		case 3:
			return NewString(s)
		default:
			return NewBool(i%2 == 0)
		}
	}
	f := func(s1, s2 uint8, i1, i2 int64, f1, f2 float64, str1, str2 string) bool {
		a := mk(s1, i1, f1, str1)
		b := mk(s2, i2, f2, str2)
		sameEnc := string(EncodeKey(a)) == string(EncodeKey(b))
		sameVal := a.Kind() == b.Kind() && Compare(a, b) == 0
		return sameEnc == sameVal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAppendKeyReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 64)
	buf = AppendKey(buf, NewInt(1))
	n := len(buf)
	buf = AppendKey(buf, NewString("xy"))
	if len(buf) <= n {
		t.Fatal("AppendKey must extend the buffer")
	}
	if want := EncodeKey(NewInt(1), NewString("xy")); string(buf) != string(want) {
		t.Fatalf("appended buffer %x, EncodeKey of the tuple %x", buf, want)
	}
}

// TestAppendKeyCanonicalFloats: SQL equality cannot tell -0.0 from 0.0, nor
// (under Compare) one NaN from another, so neither may the key encoding every
// hash operator buckets by — and KeyBits, the fixed-width keys' form of a
// REAL, is the encoding's payload. Every other float keeps its own bits.
func TestAppendKeyCanonicalFloats(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if a, b := string(EncodeKey(NewFloat(0))), string(EncodeKey(NewFloat(negZero))); a != b {
		t.Errorf("0.0 and -0.0 encode differently: %x vs %x", a, b)
	}
	otherNaN := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1<<63 | 0xBEEF)
	if !math.IsNaN(otherNaN) {
		t.Fatal("test bug: not a NaN")
	}
	if a, b := string(EncodeKey(NewFloat(math.NaN()))), string(EncodeKey(NewFloat(otherNaN))); a != b {
		t.Errorf("two NaNs encode differently: %x vs %x", a, b)
	}
	if KeyBits(negZero) != KeyBits(0) || KeyBits(otherNaN) != KeyBits(math.NaN()) {
		t.Errorf("KeyBits tells the zeros or the NaNs apart")
	}
	floats := []float64{0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1, -1, math.Inf(1), math.Inf(-1), math.NaN()}
	for i, f := range floats {
		if i > 0 && !math.IsNaN(f) && KeyBits(f) != math.Float64bits(f) { // every float but the zeros and NaN
			t.Errorf("%v: KeyBits %x, its own bits %x", f, KeyBits(f), math.Float64bits(f))
		}
		for _, g := range floats[:i] {
			if string(EncodeKey(NewFloat(f))) == string(EncodeKey(NewFloat(g))) {
				t.Errorf("%v and %v encode alike", f, g)
			}
		}
	}
}
