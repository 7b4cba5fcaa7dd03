package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/leakcheck"
	"repro/internal/workload"
	"repro/pctagg"
)

// Allocation a fuzzed session may make: a fixed allowance for the session
// and the fresh session after it, plus a share for every byte the client
// sent. A statement is at least ~25 bytes on the wire and the tenant's limits
// bound what it materializes, so a session allocates in proportion to what
// arrived, never to what a header claims (maxFrame). Measured on the seeds:
// ~80 KB with no input, and ~1 KB a byte for a pipelined Vpct and Hpct.
const (
	sessionAllocBase    = 1 << 20
	sessionAllocPerByte = 8 << 10
)

// FuzzServerSession drives a live server with arbitrary bytes after a valid
// hello — truncated, oversized and pipelined garbage frames, duplicate and
// zero request IDs, a cancel before its query — on a fresh demo DB each time.
// It asserts that the server does not panic — no statement answers PCT206 and
// no connection panic is contained — leaks no goroutine, allocates in
// proportion to the bytes sent, and still accepts a fresh session that
// answers a query.
func FuzzServerSession(f *testing.F) {
	req := func(id int64, op, sql string) []byte { return frame(f, request{ID: id, Op: op, SQL: sql}) }
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	const (
		vpct = "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city"
		hpct = "SELECT store, Hpct(salesAmt BY dweek) FROM daily GROUP BY store"
	)
	pipelined := cat(req(1, opQuery, vpct), req(2, opQuery, hpct), req(3, opPing, ""), req(4, opQuery, "SELECT count(*) FROM sales"))
	for _, seed := range [][]byte{
		nil,
		pipelined,
		pipelined[:len(pipelined)-3], // truncated mid-frame
		cat(req(5, opQuery, vpct), req(5, opQuery, hpct), req(5, opCancel, "")),                       // duplicate IDs
		cat(req(5, opQuery, vpct), req(5, opQuery, vpct), req(5, opCancel, ""), req(5, opCancel, "")), // a cancel for both of them
		cat(req(0, opQuery, vpct), req(0, opPing, ""), req(0, opCancel, "")),                          // zero IDs
		cat(req(7, opCancel, ""), req(7, opQuery, vpct)),                                              // a cancel before its query
		cat(req(8, opQuery, "INSERT INTO sales SELECT * FROM sales"), req(9, opQuery, vpct)),          // DML beside a query
		cat(req(1, opQuery, "SELEC 1"), req(2, "nope", ""), req(3, opHello, "")),                      // bad SQL, unknown op, a second hello
		cat(req(1, opPing, ""), []byte{0xff, 0xff, 0xff, 0xff}),                                       // oversized header
		cat(req(1, opPing, ""), []byte{0x01, 0x00, 0x00, 0x00}),                                       // the cap, no body
		append([]byte{0, 0, 0, 9}, "not json!"...),
		append([]byte{0, 0, 0, 6}, `[1, 2]`...),
		append([]byte{0, 0, 0, 12}, `{"id":"x"}  `...),
		cat(req(1, opClose, ""), req(2, opQuery, vpct)), // frames after close
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		defer leakcheck.Check(t)()
		db := pctagg.Open()
		if _, err := db.Exec(workload.DemoSQL); err != nil {
			t.Fatal(err)
		}
		srv := New(db, Config{
			Addr:         "127.0.0.1:0",
			WriteTimeout: time.Second,
			DrainTimeout: time.Second,
			DefaultTenant: TenantProfile{MaxConcurrent: 2, MaxQueue: 16, Limits: engine.Limits{
				MaxRows: 1_000, MaxGroups: 1_000, MaxBytes: 256 << 10, Timeout: 100 * time.Millisecond,
			}},
		})
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		panics := mConnPanics.Value()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)

		fuzzSession(t, srv.Addr().String(), data)
		// The session's read loop has returned, so no statement is dispatched
		// after this: wait for the ones in flight.
		srv.inflightWG.Wait()
		c, err := Dial(srv.Addr().String(), "fresh")
		if err != nil {
			t.Fatalf("fresh session after the input: %v", err)
		}
		res, err := c.Do(context.Background(), "SELECT 1")
		c.Close()
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("fresh session's query after the input: %v, %v", res, err)
		}

		runtime.ReadMemStats(&after)
		if n := mConnPanics.Value() - panics; n != 0 {
			t.Fatalf("%d connection panic(s) contained", n)
		}
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(sessionAllocBase+sessionAllocPerByte*len(data)); got > bound {
			t.Fatalf("a %d-byte session allocated %d bytes, over its bound of %d", len(data), got, bound)
		}
	})
}

// fuzzSession opens a raw session on addr as tenant "fuzz" and writes data
// after the hello. Once the responses data is owed have come (answers), or
// the server has closed the connection, it half-closes, and reads on until
// the server closes. It fails t on a statement that panicked.
func fuzzSession(t *testing.T, addr string, data []byte) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := writeFrame(conn, &request{ID: 1, Op: opHello, Tenant: "fuzz"}); err != nil {
		t.Fatal(err)
	}
	// Read concurrently with the write: the server answers a ping on its read
	// loop, so a reader that waited for the write to end could stall both.
	// The hello's response comes first, then the ones data is owed.
	want, answered, read := 1+answers(data), make(chan struct{}), make(chan error, 1)
	go func() {
		fr := newFrameReader(conn)
		for n := 0; ; n++ {
			if n == want {
				close(answered)
			}
			resp, err := fr.response()
			if err != nil {
				read <- err
				return
			}
			if resp.Err != nil && resp.Err.Code == diag.CodePanic {
				read <- errors.New(resp.Err.Message)
				return
			}
		}
	}()
	if _, err := conn.Write(data); err == nil {
		select {
		case <-answered:
		case err := <-read:
			read <- err
		}
		conn.(*net.TCPConn).CloseWrite()
	}
	// The server closes the connection when the input ends, or resets it
	// when it stops reading with input left unread.
	var op *net.OpError
	if err := <-read; err != io.EOF && !(errors.As(err, &op) && !op.Timeout()) {
		t.Fatalf("reading the session's responses: %v", err)
	}
}

// answers counts the responses the server owes a session that sent data: one
// for each request frame before the first that does not parse, none for a
// cancel, and none after a close.
func answers(data []byte) int {
	fr, n := newFrameReader(bytes.NewReader(data)), 0
	for {
		req, err := fr.request()
		switch {
		case err != nil:
			return n
		case req.Op == opClose:
			return n + 1
		case req.Op != opCancel:
			n++
		}
	}
}

// TestCancelReachesDuplicateIDs pipelines two queries under one request ID,
// both held in flight at the dispatch gate, and sends one cancel for the ID:
// both must answer cancelled. A session that kept one cancel per ID cancelled
// only the second, and the first stayed in the gate.
func TestCancelReachesDuplicateIDs(t *testing.T) {
	defer leakcheck.Check(t)()
	db := pctagg.Open()
	if _, err := db.Exec(workload.DemoSQL); err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{Addr: "127.0.0.1:0", DefaultTenant: TenantProfile{MaxConcurrent: 2, MaxQueue: 4}})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	gate := NewGate(srv)
	defer gate.Release()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	fr := newFrameReader(conn)
	send := func(req request) {
		t.Helper()
		if err := writeFrame(conn, &req); err != nil {
			t.Fatal(err)
		}
	}
	send(request{ID: 1, Op: opHello, Tenant: "dup"})
	if resp, err := fr.response(); err != nil || !resp.OK {
		t.Fatalf("hello: %+v, %v", resp, err)
	}
	for n := int64(1); n <= 2; n++ {
		send(request{ID: 5, Op: opQuery, SQL: "SELECT count(*) FROM sales"})
		gate.WaitInFlight(t, n)
	}
	send(request{ID: 5, Op: opCancel})
	for n := range 2 {
		resp, err := fr.response()
		if err != nil {
			t.Fatalf("response %d of 2 after one cancel: %v", n+1, err)
		}
		if resp.ID != 5 || resp.Err == nil || resp.Err.Code != diag.CodeCancelled {
			t.Fatalf("response %d: %+v (err %+v), want ID 5 cancelled with %s", n+1, resp, resp.Err, diag.CodeCancelled)
		}
	}
}
