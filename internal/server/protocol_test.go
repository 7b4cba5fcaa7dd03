// White-box tests of the frame codec: what a frame costs the reader before
// its body arrives, and a fuzzer over arbitrary bytes on the wire.
package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// frame encodes v as one wire frame.
func frame(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadFrameAllocatesWhatArrives: a header that claims the largest frame
// and is followed by nothing costs the reader what arrived, not what the
// header claimed, and the short body is an error.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var req request
	err := readFrame(bytes.NewReader(hdr[:]), &req)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("header alone: err = %v, want a short-body error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("a 4-byte input claiming %d bytes allocated %d bytes, want under 1 MiB", maxFrame, got)
	}
}

// TestReadFrameKeepsFramesApart: a frame whose JSON value ends before its
// length does is consumed whole, so the next frame decodes; a body cut short
// is an error.
func TestReadFrameKeepsFramesApart(t *testing.T) {
	padded := []byte(`{"id":1,"op":"ping"}   `)
	var in bytes.Buffer
	binary.Write(&in, binary.BigEndian, uint32(len(padded)))
	in.Write(padded)
	in.Write(frame(t, request{ID: 2, Op: opQuery, SQL: "SELECT 1"}))
	var a, b request
	if err := readFrame(&in, &a); err != nil || a.ID != 1 {
		t.Fatalf("padded frame: %+v, %v", a, err)
	}
	if err := readFrame(&in, &b); err != nil || b.ID != 2 || b.SQL != "SELECT 1" {
		t.Fatalf("frame after a padded one: %+v, %v", b, err)
	}
	whole := frame(t, request{ID: 3, Op: opPing})
	var c request
	if err := readFrame(bytes.NewReader(whole[:len(whole)-2]), &c); err == nil {
		t.Fatalf("truncated frame decoded: %+v", c)
	}
}

// FuzzFrameDecode feeds arbitrary bytes to the frame reader. It must not
// panic; it returns an error or a request; and a request it returns survives
// writeFrame → readFrame unchanged.
func FuzzFrameDecode(f *testing.F) {
	for _, req := range []request{
		{ID: 1, Op: opHello, Tenant: "alpha"},
		{ID: 2, Op: opQuery, SQL: "SELECT state, Vpct(salesAmt) FROM sales GROUP BY state"},
		{ID: 2, Op: opCancel},
		{ID: 3, Op: opPing},
	} {
		b := frame(f, req)
		f.Add(b)
		f.Add(b[:len(b)-3]) // truncated
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                 // oversized
	f.Add([]byte{0x01, 0x00, 0x00, 0x00})                 // exactly the cap, no body
	f.Add(append([]byte{0, 0, 0, 9}, "not json!"...))     // not JSON
	f.Add(append([]byte{0, 0, 0, 6}, `[1, 2]`...))        // JSON, not an object
	f.Add(append([]byte{0, 0, 0, 12}, `{"id":"x"}  `...)) // wrong field type
	f.Fuzz(func(t *testing.T, data []byte) {
		var req request
		if err := readFrame(bytes.NewReader(data), &req); err != nil {
			return
		}
		var again request
		if err := readFrame(bytes.NewReader(frame(t, req)), &again); err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", req, err)
		}
		if again != req {
			t.Fatalf("round trip changed the request: %+v -> %+v", req, again)
		}
	})
}
