// Package server is the network front door of the percentage-aggregation
// engine: a TCP, length-prefixed-JSON query server with session management,
// per-tenant resource profiles, and admission control.
//
// The wire protocol is deliberately minimal: every frame is a 4-byte
// big-endian length followed by one JSON object (a request from the client,
// a response from the server). A session opens with a "hello" carrying the
// tenant name; after that the client may pipeline "query" frames and cancel
// an in-flight statement by ID. Every refusal the admission layer issues —
// queue full, tenant cap, draining — is a typed, retryable PCT21x error
// carrying a backoff hint, never a dropped connection.
package server

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// maxFrame bounds a single protocol frame. A length prefix beyond it is
// treated as a protocol error before any allocation happens.
const maxFrame = 16 << 20

// Request operations.
const (
	// opHello opens a session; Tenant selects the resource profile.
	opHello = "hello"
	// opQuery runs one SQL statement; responses may arrive out of order
	// relative to other pipelined queries, matched by ID.
	opQuery = "query"
	// opCancel cancels the in-flight statement whose request ID matches
	// this frame's ID. The statement itself answers with PCT200; the
	// cancel frame gets no response of its own.
	opCancel = "cancel"
	// opPing is a liveness probe; the server echoes an OK response.
	opPing = "ping"
	// opClose ends the session cleanly.
	opClose = "close"
)

// request is one client frame.
type request struct {
	ID     int64  `json:"id"`
	Op     string `json:"op"`
	Tenant string `json:"tenant,omitempty"`
	SQL    string `json:"sql,omitempty"`
}

// response is one server frame. ID echoes the request it answers; ID 0 is
// an unsolicited server notice (e.g. the PCT213 idle-timeout close).
type response struct {
	ID        int64      `json:"id"`
	OK        bool       `json:"ok"`
	SessionID int64      `json:"session_id,omitempty"`
	Columns   []string   `json:"columns,omitempty"`
	Rows      [][]any    `json:"rows,omitempty"`
	Affected  int64      `json:"affected,omitempty"`
	Err       *wireError `json:"err,omitempty"`
}

// wireError carries a failure over the wire with its PCT code and, for
// admission refusals, the retry contract: Retryable means the statement
// never started, and BackoffMs is the server's hint for how long to wait
// before trying again.
type wireError struct {
	Code      string `json:"code,omitempty"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable,omitempty"`
	BackoffMs int64  `json:"backoff_ms,omitempty"`
}

// writeFrame marshals v and writes it as one length-prefixed frame with a
// single Write call, so a frame is never interleaved mid-write.
func writeFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(body) > maxFrame {
		return fmt.Errorf("server: frame of %d bytes exceeds the %d-byte cap", len(body), maxFrame)
	}
	buf := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(buf, uint32(len(body)))
	copy(buf[4:], body)
	_, err = w.Write(buf)
	return err
}

// readFrame reads one length-prefixed frame into v. Numbers decode as
// json.Number so int64 row values survive the round trip undamaged. The body
// is decoded as it arrives: what the frame allocates grows with the bytes
// that came, never with what the header claims, so a peer cannot make the
// reader hold maxFrame bytes by sending four.
func readFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return fmt.Errorf("server: frame of %d bytes exceeds the %d-byte cap", n, maxFrame)
	}
	body := &io.LimitedReader{R: r, N: int64(n)}
	dec := json.NewDecoder(body)
	dec.UseNumber()
	err := dec.Decode(v)
	if err == nil {
		// The value may end before the frame does: the rest of the frame is
		// consumed, so the next header is read where it begins.
		_, err = io.Copy(io.Discard, body)
	}
	if body.N > 0 && (err == nil || err == io.EOF) {
		err = fmt.Errorf("server: frame body ended %d bytes short of its %d-byte length: %w", body.N, n, io.ErrUnexpectedEOF)
	}
	return err
}
