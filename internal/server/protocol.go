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
//
// Both ends read frames with one resumable reader (frameReader) and parse the
// body with one small recursive-descent parser (client.go). Request frames
// are small, and the client writes them with encoding/json. A response frame
// can carry a whole result, so the server appends it into one buffer straight
// from the result's typed vectors (appendResponse), and the parser boxes each
// cell once. The bytes are the ones json.Marshal writes for the structs
// below, so either end reads a peer that still uses encoding/json.
package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/value"
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
// an unsolicited server notice (e.g. the PCT213 idle-timeout close). The tags
// name the fields on the wire, in the order appendResponse writes them. The
// server writes a query's rows from res; the client reads them into Rows.
type response struct {
	ID        int64      `json:"id"`
	OK        bool       `json:"ok"`
	SessionID int64      `json:"session_id,omitempty"`
	Columns   []string   `json:"columns,omitempty"`
	Rows      [][]any    `json:"rows,omitempty"`
	Affected  int64      `json:"affected,omitempty"`
	Err       *wireError `json:"err,omitempty"`

	res *engine.Result
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

// writeFrame writes the request v as one length-prefixed frame with a single
// Write call, so a frame is never interleaved mid-write.
func writeFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	buf := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(buf, uint32(len(body)))
	copy(buf[4:], body)
	_, err = w.Write(buf)
	return err
}

// appendResponse appends resp's frame to b: the 4-byte length, patched in
// once the body is written, then the body with the fields in json.Marshal's
// order under its omitempty rules. The rows are written a row at a time from
// the result's vectors. It fails, returning b as it was, when a cell is a
// NaN or an infinite REAL, which JSON has no number for, or when the body
// passes maxFrame — at the first row past it, so a huge result stops early.
func appendResponse(b []byte, resp *response) ([]byte, error) {
	at := len(b)
	b = append(b, 0, 0, 0, 0)
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, resp.ID, 10)
	b = append(b, `,"ok":`...)
	b = strconv.AppendBool(b, resp.OK)
	if resp.SessionID != 0 {
		b = append(b, `,"session_id":`...)
		b = strconv.AppendInt(b, resp.SessionID, 10)
	}
	if len(resp.Columns) > 0 {
		b = append(b, `,"columns":[`...)
		for i, c := range resp.Columns {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, c, false)
		}
		b = append(b, ']')
	}
	if resp.res != nil && resp.res.Len() > 0 {
		var err error
		if b, err = appendRows(append(b, `,"rows":`...), resp.res, at+4+maxFrame); err != nil {
			return b[:at], err
		}
	}
	if resp.Affected != 0 {
		b = append(b, `,"affected":`...)
		b = strconv.AppendInt(b, resp.Affected, 10)
	}
	if e := resp.Err; e != nil {
		b = append(b, `,"err":{`...)
		if e.Code != "" {
			b = append(appendString(append(b, `"code":`...), e.Code, false), ',')
		}
		b = appendString(append(b, `"message":`...), e.Message, false)
		if e.Retryable {
			b = append(b, `,"retryable":true`...)
		}
		if e.BackoffMs != 0 {
			b = append(b, `,"backoff_ms":`...)
			b = strconv.AppendInt(b, e.BackoffMs, 10)
		}
		b = append(b, '}')
	}
	b = append(b, '}')
	n := len(b) - at - 4
	if n > maxFrame {
		return b[:at], errOversize
	}
	binary.BigEndian.PutUint32(b[at:], uint32(n))
	return b, nil
}

var errOversize = fmt.Errorf("server: the response frame exceeds the %d-byte cap", maxFrame)

// appendRows writes a result's rows as a JSON array of arrays. A cell keeps
// its type readable: an INTEGER is digits alone, and a REAL always has a '.'
// or an exponent — a whole one is written 2.0 — so the client reads each back
// as what it was. It stops with errOversize once b is longer than limit.
func appendRows(b []byte, res *engine.Result, limit int) ([]byte, error) {
	vecs := res.Vectors()
	b = append(b, '[')
	for k, n := 0, res.Len(); k < n; k++ {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j := range vecs {
			if j > 0 {
				b = append(b, ',')
			}
			var err error
			switch v := &vecs[j]; {
			case v.Boxed:
				b, err = appendValue(b, v.Vals[k])
			case v.Nulls.Get(k):
				b = append(b, "null"...)
			case v.Type == storage.TypeInt:
				b = strconv.AppendInt(b, v.Ints[k], 10)
			case v.Type == storage.TypeFloat:
				b, err = appendReal(b, v.Flts[k])
			case v.Type == storage.TypeString:
				b = appendString(b, v.Dict.Str(v.Codes[k]), true)
			default:
				b = strconv.AppendBool(b, v.Bools[k])
			}
			if err != nil {
				return b, err
			}
		}
		b = append(b, ']')
		if len(b) > limit {
			return b, errOversize
		}
	}
	return append(b, ']'), nil
}

// appendValue writes a boxed cell by its kind.
func appendValue(b []byte, v value.Value) ([]byte, error) {
	switch v.Kind() {
	case value.KindInt:
		return strconv.AppendInt(b, v.Int(), 10), nil
	case value.KindFloat:
		return appendReal(b, v.Float())
	case value.KindString:
		return appendString(b, v.Str(), true), nil
	case value.KindBool:
		return strconv.AppendBool(b, v.Bool()), nil
	}
	return append(b, "null"...), nil
}

// appendReal writes a finite REAL as encoding/json does — an exponent below
// 1e-6 and from 1e21 on — with ".0" after a whole value. A NaN or an infinite
// REAL is an error.
func appendReal(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("server: the result holds the REAL %v, which JSON has no number for", f)
	}
	if abs := math.Abs(f); abs > 0 && (abs < 1e-6 || abs >= 1e21) {
		return strconv.AppendFloat(b, f, 'e', -1, 64), nil
	}
	at := len(b)
	b = strconv.AppendFloat(b, f, 'f', -1, 64)
	for _, c := range b[at:] {
		if c == '.' {
			return b, nil
		}
	}
	return append(b, ".0"...), nil
}

// plain marks the ASCII bytes a JSON string holds as they are: encoding/json
// escapes the rest — control characters, '"', '\\', and '<', '>' and '&'.
var plain = func() (t [utf8.RuneSelf]bool) {
	for c := range t {
		t[c] = c >= 0x20 && !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return t
}()

// appendString writes s as a JSON string, escaped as encoding/json escapes
// it: '"' and '\\' by a backslash, '\n', '\r' and '\t' by letter, the other
// bytes plain does not mark and U+2028 and U+2029 as \u escapes, and each byte
// of invalid UTF-8 as \ufffd. A name or a message writes '\b' and '\f' by
// letter too, as encoding/json does; a cell writes them as \u0008 and \u000c,
// as the rows always have.
func appendString(b []byte, s string, cell bool) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	from := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if plain[c] {
				i++
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
			case c == '\b' && !cell:
				b = append(b, '\\', 'b')
			case c == '\f' && !cell:
				b = append(b, '\\', 'f')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			from = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[from:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[from:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		from = i
	}
	b = append(b, s[from:]...)
	return append(b, '"')
}

// frameReader reads the frames of one connection — requests at the server,
// responses at the client — each body as its bytes arrive: what a frame
// allocates grows with the bytes that came, never with what the header
// claims, so a peer cannot make the reader hold maxFrame bytes by sending
// four. A read that fails keeps the header or body bytes read so far, and the
// next call resumes the frame where it stopped: a server that wakes on its
// idle deadline mid-frame reads on without losing its place in the stream.
// Between frames it keeps a body buffer of up to maxPooledFrame bytes and the
// parser's string cache.
type frameReader struct {
	r    *bufio.Reader
	hdr  [4]byte
	nhdr int    // header bytes read so far; 0 once a frame is whole
	body []byte // body bytes read so far
	p    parser
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReader(r)}
}

// next reads the rest of the current frame and returns its body, valid until
// the next call.
func (fr *frameReader) next() ([]byte, error) {
	if fr.nhdr == 0 {
		fr.body = fr.body[:0]
		if cap(fr.body) > maxPooledFrame {
			fr.body = nil
		}
	}
	for fr.nhdr < len(fr.hdr) {
		k, err := fr.r.Read(fr.hdr[fr.nhdr:])
		fr.nhdr += k
		if err != nil && fr.nhdr < len(fr.hdr) {
			if err == io.EOF && fr.nhdr > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	n := binary.BigEndian.Uint32(fr.hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("server: frame of %d bytes exceeds the %d-byte cap", n, maxFrame)
	}
	body, err := readBody(fr.r, fr.body, int(n))
	if fr.body = body; err != nil {
		return nil, err
	}
	fr.nhdr = 0
	return body, nil
}

// readBody reads the rest of an n-byte frame body into buf, which holds what
// came so far, as its bytes arrive. buf grows by doubling, from 512 bytes, so
// growing it never allocates more than twice what came.
func readBody(r io.Reader, buf []byte, n int) ([]byte, error) {
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(max(len(buf), 512), n-len(buf)))
		}
		k, err := r.Read(buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+k]
		if err != nil && len(buf) < n {
			if err == io.EOF {
				err = fmt.Errorf("server: frame body ended %d bytes short of its %d-byte length: %w", n-len(buf), n, io.ErrUnexpectedEOF)
			}
			return buf, err
		}
	}
	return buf, nil
}

// request reads and parses the next request frame.
func (fr *frameReader) request() (request, error) {
	body, err := fr.next()
	if err != nil {
		return request{}, err
	}
	return fr.p.request(body)
}

// response reads and parses the next response frame.
func (fr *frameReader) response() (*response, error) {
	body, err := fr.next()
	if err != nil {
		return nil, err
	}
	return fr.p.response(body)
}
