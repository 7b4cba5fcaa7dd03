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
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
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
	Rows      wireRows   `json:"rows,omitempty"`
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

// writeFrame writes v as one length-prefixed frame with a single Write call,
// so a frame is never interleaved mid-write.
func writeFrame(w io.Writer, v any) error {
	buf, err := encodeFrame(v)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// encodeFrame marshals v into one length-prefixed frame. It fails when v has
// no JSON form — a row holds a non-finite REAL — or the body is over maxFrame.
func encodeFrame(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if me := (*json.MarshalerError)(nil); errors.As(err, &me) {
		err = me.Unwrap()
	}
	if err != nil {
		return nil, err
	}
	if len(body) > maxFrame {
		return nil, fmt.Errorf("server: frame of %d bytes exceeds the %d-byte cap", len(body), maxFrame)
	}
	buf := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(buf, uint32(len(body)))
	copy(buf[4:], body)
	return buf, nil
}

// wireRows is a response's rows, cells of the Go types pctagg returns. Its
// JSON keeps a cell's type readable: an INTEGER is digits alone, and a REAL
// always has a '.' or an exponent — a whole one is written 2.0 — so
// decodeRows reads each back as what it was. A NaN or an infinite REAL has no
// JSON number, and is an error.
type wireRows [][]any

func (rows wireRows) MarshalJSON() ([]byte, error) {
	b := []byte{'['}
	if len(rows) > 0 {
		b = make([]byte, 1, 2+len(rows)*(2+8*len(rows[0])))
		b[0] = '['
	}
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, cell := range row {
			if j > 0 {
				b = append(b, ',')
			}
			switch x := cell.(type) {
			case nil:
				b = append(b, "null"...)
			case int64:
				b = strconv.AppendInt(b, x, 10)
			case float64:
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return nil, fmt.Errorf("server: the result holds the REAL %v, which JSON has no number for", x)
				}
				b = appendReal(b, x)
			case string:
				b = appendString(b, x)
			case bool:
				b = strconv.AppendBool(b, x)
			default:
				return nil, fmt.Errorf("server: a result cell of type %T", x)
			}
		}
		b = append(b, ']')
	}
	return append(b, ']'), nil
}

// appendReal writes a finite REAL as encoding/json does — an exponent below
// 1e-6 and from 1e21 on — with ".0" after a whole value.
func appendReal(b []byte, f float64) []byte {
	if abs := math.Abs(f); abs > 0 && (abs < 1e-6 || abs >= 1e21) {
		return strconv.AppendFloat(b, f, 'e', -1, 64)
	}
	at := len(b)
	b = strconv.AppendFloat(b, f, 'f', -1, 64)
	for _, c := range b[at:] {
		if c == '.' {
			return b
		}
	}
	return append(b, ".0"...)
}

// appendString writes s as a JSON string: '"', '\\' and control characters
// escaped, and each byte of invalid UTF-8 replaced by U+FFFD, as
// encoding/json does (which then also escapes '<', '>' and '&').
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	from := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' && c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if c >= utf8.RuneSelf && (r != utf8.RuneError || size > 1) {
			i += size
			continue
		}
		b = append(b, s[from:i]...)
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c == '\t':
			b = append(b, '\\', 't')
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, `\ufffd`...)
		}
		i += size
		from = i
	}
	b = append(b, s[from:]...)
	return append(b, '"')
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
