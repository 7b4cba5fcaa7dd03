// White-box tests of the frame codec: what a frame costs the reader before
// its body arrives, and a fuzzer over arbitrary bytes on the wire.
package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/diag"
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

// TestOversizeResponseKeepsSession: a response whose frame would pass
// maxFrame is answered with PCT214 instead, and the session writes on.
func TestOversizeResponseKeepsSession(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	sess := &session{conn: a, srv: &Server{cfg: Config{WriteTimeout: 5 * time.Second}}, stop: func() { t.Error("the session was stopped") }}
	huge := &response{ID: 7, OK: true, Columns: []string{"s"}, res: resultOf([]string{"s"}, [][]any{{strings.Repeat("x", maxFrame)}})}
	done := make(chan error, 1)
	go func() {
		err := sess.write(huge)
		if err == nil {
			err = sess.write(&response{ID: 8, OK: true})
		}
		done <- err
	}()
	for _, want := range []response{{ID: 7, Err: &wireError{Code: diag.CodeUnencodable}}, {ID: 8, OK: true}} {
		var got response
		if err := readFrame(b, &got); err != nil {
			t.Fatal(err)
		}
		if got.ID != want.ID || got.OK != want.OK || (got.Err == nil) != (want.Err == nil) || got.Err != nil && got.Err.Code != want.Err.Code {
			t.Errorf("frame %d: got %+v (err %+v)", want.ID, got, got.Err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestWireRowsJSON pins how each cell type is written: a REAL always with a
// '.' or an exponent, strings escaped as encoding/json escapes them.
func TestWireRowsJSON(t *testing.T) {
	rows := resultOf(make([]string, 10), [][]any{{int64(-3), 2.0, math.Copysign(0, -1), 0.5, 1e21, 1e-7, 123456.0, "a\"\\\n\x01\xff<é", true, nil}})
	got, err := appendRows(nil, rows, maxFrame)
	if err != nil {
		t.Fatal(err)
	}
	want := `[[-3,2.0,-0.0,0.5,1e+21,1e-07,123456.0,"a\"\\\n\u0001\ufffd\u003cé",true,null]]`
	if string(got) != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
	if err := json.Unmarshal(got, &[][]any{}); err != nil {
		t.Errorf("not valid JSON: %v", err)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := appendRows(nil, resultOf([]string{"x"}, [][]any{{f}}), maxFrame); err == nil {
			t.Errorf("%v marshalled", f)
		}
	}
}
