package value

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tuples := [][]Value{
		{},
		{Null},
		{NewInt(0)},
		{NewInt(-1), NewInt(1)},
		{NewFloat(3.25), NewString("abc"), NewBool(true)},
		{NewString(""), NewString("x"), Null, NewBool(false)},
		{NewString("a\x00b"), NewInt(42)},
	}
	for _, tu := range tuples {
		enc := EncodeKey(tu...)
		dec, err := decodeKey(enc)
		if err != nil {
			t.Fatalf("decodeKey(%v): %v", tu, err)
		}
		if len(dec) != len(tu) {
			t.Fatalf("round trip length %d != %d", len(dec), len(tu))
		}
		for i := range tu {
			if Compare(dec[i], tu[i]) != 0 || dec[i].Kind() != tu[i].Kind() {
				t.Errorf("round trip [%d]: %v != %v", i, dec[i], tu[i])
			}
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

func TestDecodeCorruptKeys(t *testing.T) {
	bad := [][]byte{
		{encInt},                     // truncated int payload
		{encFloat, 0, 0},             // truncated float payload
		{encString, 0, 0, 0, 5, 'a'}, // length 5 but 1 byte
		{encString, 0, 0},            // truncated length
		{encBool},                    // missing bool byte
		{99},                         // unknown tag
	}
	for _, b := range bad {
		if _, err := decodeKey(b); err == nil {
			t.Errorf("decodeKey(%v) should fail", b)
		}
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
	dec, err := decodeKey(buf)
	if err != nil || len(dec) != 2 {
		t.Fatalf("decode appended buffer: %v %v", dec, err)
	}
}

// TestAppendKeyCanonicalFloats: SQL equality cannot tell -0.0 from 0.0, nor
// (under Compare) one NaN from another, so neither may the key encoding every
// hash operator buckets by.
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
	for _, f := range []float64{math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1, -1, math.Inf(1), math.Inf(-1)} {
		dec, err := decodeKey(EncodeKey(NewFloat(f)))
		if err != nil || math.Float64bits(dec[0].Float()) != math.Float64bits(f) {
			t.Errorf("%v does not round-trip bit for bit: %v %v", f, dec, err)
		}
		if string(EncodeKey(NewFloat(f))) == string(EncodeKey(NewFloat(0))) {
			t.Errorf("%v encodes as zero", f)
		}
	}
}
