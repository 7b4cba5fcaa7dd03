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
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/diag"
	"repro/internal/leakcheck"
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
	_, err := newFrameReader(bytes.NewReader(hdr[:])).request()
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
	fr := newFrameReader(&in)
	if a, err := fr.request(); err != nil || a.ID != 1 {
		t.Fatalf("padded frame: %+v, %v", a, err)
	}
	if b, err := fr.request(); err != nil || b.ID != 2 || b.SQL != "SELECT 1" {
		t.Fatalf("frame after a padded one: %+v, %v", b, err)
	}
	whole := frame(t, request{ID: 3, Op: opPing})
	if c, err := newFrameReader(bytes.NewReader(whole[:len(whole)-2])).request(); err == nil {
		t.Fatalf("truncated frame decoded: %+v", c)
	}
}

// chunked delivers data size bytes at a time with a deadline error before
// each chunk, as a connection does whose read deadline keeps passing
// mid-frame.
type chunked struct {
	data []byte
	size int
	wait bool
}

func (c *chunked) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	if c.wait = !c.wait; c.wait {
		return 0, os.ErrDeadlineExceeded
	}
	n := copy(p[:min(len(p), c.size)], c.data)
	c.data = c.data[n:]
	return n, nil
}

// FuzzFrameDecode feeds arbitrary bytes to the frame reader. It must not
// panic; it returns an error or a request; a request it returns survives
// writeFrame → read unchanged; and the bytes delivered in chunks, a deadline
// error between each two, read as they do whole.
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
		req, err := newFrameReader(bytes.NewReader(data)).request()
		for _, size := range []int{1, 3, 7} {
			fr := newFrameReader(&chunked{data: data, size: size})
			got, gerr := fr.request()
			for errors.Is(gerr, os.ErrDeadlineExceeded) {
				got, gerr = fr.request()
			}
			if (gerr == nil) != (err == nil) || got != req {
				t.Fatalf("in %d-byte chunks: %+v, %v; whole: %+v, %v", size, got, gerr, req, err)
			}
		}
		if err != nil {
			return
		}
		again, err := newFrameReader(bytes.NewReader(frame(t, req))).request()
		if err != nil {
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
	fr := newFrameReader(b)
	for _, want := range []response{{ID: 7, Err: &wireError{Code: diag.CodeUnencodable}}, {ID: 8, OK: true}} {
		got, err := fr.response()
		if err != nil {
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

// TestRequestFrameSurvivesIdleTimeout: a request frame that straddles the
// session's idle deadline while a statement is in flight is read whole once
// the rest of it arrives. The session is neither reset nor out of step: the
// held statement and the new one are both answered.
func TestRequestFrameSurvivesIdleTimeout(t *testing.T) {
	defer leakcheck.Check(t)()
	h := newDrainHarness(t, Config{SessionTimeout: 50 * time.Millisecond})
	defer h.srv.Close()
	conn, err := net.Dial("tcp", h.srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	fr := newFrameReader(conn)
	send := func(b []byte) {
		t.Helper()
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	send(frame(t, request{ID: 1, Op: opHello, Tenant: "a"}))
	if hello, err := fr.response(); err != nil || !hello.OK {
		t.Fatalf("hello: %+v, %v", hello, err)
	}
	send(frame(t, request{ID: 2, Op: opQuery, SQL: "SELECT count(*) FROM sales"}))
	h.gate.WaitInFlight(t, 1)

	// The header and two body bytes, then the rest after three idle
	// deadlines have passed.
	q := frame(t, request{ID: 3, Op: opQuery, SQL: "SELECT count(*) FROM daily"})
	send(q[:6])
	time.Sleep(175 * time.Millisecond)
	send(q[6:])
	h.gate.WaitInFlight(t, 2)
	h.gate.Release()

	answered := map[int64]bool{}
	for len(answered) < 2 {
		resp, err := fr.response()
		if err != nil {
			t.Fatalf("answers so far %v: %v", answered, err)
		}
		if !resp.OK || resp.Err != nil || len(resp.Rows) != 1 {
			t.Fatalf("response %d: %+v (err %+v)", resp.ID, resp, resp.Err)
		}
		answered[resp.ID] = true
	}
	if !answered[2] || !answered[3] {
		t.Errorf("answered %v, want requests 2 and 3", answered)
	}
}
