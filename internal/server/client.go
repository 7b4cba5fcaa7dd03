// The client end of the wire: Client pipelines requests over one connection
// and matches responses by ID on a single reader goroutine, which reads each
// response frame with the frame reader the server reads requests with
// (frameReader) and parses it with a small recursive-descent parser (parser)
// that accepts what encoding/json accepts for a response and boxes each cell
// once, into one slab the rows are carved from. A REAL, or an INTEGER outside 0–255, costs one allocation; a string
// costs none when the parser met it lately, and two when it did not.

package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// Client is a pctserve wire client. It is safe for concurrent use: requests
// may be pipelined from many goroutines and responses are matched by ID on
// a single reader goroutine.
type Client struct {
	conn   net.Conn
	tenant string
	// SessionID is the server-assigned session ID from the hello reply.
	SessionID int64

	writeMu sync.Mutex

	mu      sync.Mutex
	pending map[int64]chan *response
	nextID  int64
	err     error

	fr         *frameReader // the reader goroutine's own
	readerDone chan struct{}
}

// RemoteError is a server-side failure carried over the wire: the PCT code,
// and for admission refusals the retry contract (IsRetryable plus the
// server's Backoff hint).
type RemoteError struct {
	PCTCode     string
	Message     string
	IsRetryable bool
	Backoff     time.Duration
}

// Error returns the server's message.
func (e *RemoteError) Error() string { return e.Message }

// Code returns the PCT diagnostic code ("" when the failure carried none).
func (e *RemoteError) Code() string { return e.PCTCode }

func remoteError(we *wireError) error {
	if we == nil {
		return errors.New("server: response carried no error payload")
	}
	return &RemoteError{
		PCTCode:     we.Code,
		Message:     we.Message,
		IsRetryable: we.Retryable,
		Backoff:     time.Duration(we.BackoffMs) * time.Millisecond,
	}
}

// Dial connects and performs the hello handshake for the tenant.
func Dial(addr, tenant string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:       conn,
		tenant:     tenant,
		pending:    make(map[int64]chan *response),
		nextID:     1,
		fr:         newFrameReader(conn),
		readerDone: make(chan struct{}),
	}
	if err := writeFrame(conn, &request{ID: 1, Op: opHello, Tenant: tenant}); err != nil {
		conn.Close()
		return nil, err
	}
	resp, err := c.fr.response()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if resp.Err != nil {
		conn.Close()
		return nil, remoteError(resp.Err)
	}
	c.SessionID = resp.SessionID
	go c.readLoop()
	return c, nil
}

// readLoop dispatches response frames to their waiting requests. On any
// read failure — including the server's unsolicited PCT213 idle-timeout
// notice — every pending and future request fails with the same error.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	for {
		resp, err := c.fr.response()
		if err == nil && resp.ID == 0 {
			err = remoteError(resp.Err)
		}
		if err != nil {
			c.mu.Lock()
			if c.err == nil {
				c.err = err
			}
			for id, ch := range c.pending {
				delete(c.pending, id)
				close(ch)
			}
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
}

// Result is one statement's outcome: columns+rows for a query, Affected
// for DML.
type Result struct {
	Columns  []string
	Rows     [][]any
	Affected int64
}

func (c *Client) lastErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return errors.New("server: connection closed")
}

// send writes one frame under the write mutex.
func (c *Client) send(req *request) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return writeFrame(c.conn, req)
}

// Do runs one statement and waits for its response. Cancelling ctx sends
// the server a cancel frame and waits for the statement's (typically
// PCT200) answer, keeping the response stream in sync.
func (c *Client) Do(ctx context.Context, sql string) (*Result, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	ch := make(chan *response, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	if err := c.send(&request{ID: id, Op: opQuery, SQL: sql}); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, err
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, c.lastErr()
		}
		return toResult(resp)
	case <-ctx.Done():
		c.send(&request{ID: id, Op: opCancel})
		resp, ok := <-ch
		if !ok {
			return nil, c.lastErr()
		}
		return toResult(resp)
	}
}

// Ping round-trips a liveness probe.
func (c *Client) Ping(ctx context.Context) error {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	c.nextID++
	id := c.nextID
	ch := make(chan *response, 1)
	c.pending[id] = ch
	c.mu.Unlock()
	if err := c.send(&request{ID: id, Op: opPing}); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return err
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return c.lastErr()
		}
		if resp.Err != nil {
			return remoteError(resp.Err)
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close sends a best-effort close frame, closes the connection, and waits
// for the reader goroutine to exit (so leak checks stay clean).
func (c *Client) Close() error {
	c.send(&request{Op: opClose})
	err := c.conn.Close()
	<-c.readerDone
	return err
}

func toResult(resp *response) (*Result, error) {
	if resp.Err != nil {
		return nil, remoteError(resp.Err)
	}
	return &Result{Columns: resp.Columns, Rows: resp.Rows, Affected: resp.Affected}, nil
}

// maxDepth is how deep encoding/json lets a value nest.
const maxDepth = 10000

// parser reads one frame body by recursive descent. It takes what
// encoding/json takes when it decodes the body into a response or a request:
// one value
// after optional whitespace, the rest of the body ignored; null for the whole
// response; field names matched as encoding/json matches them, exactly or
// under Unicode case folding; a repeated field's last value winning, and an
// error object's fields merging; null leaving a scalar field as it was;
// unknown fields skipped, however deep. A row's cell reads as the type pctagg
// returns: nil, a bool, a string, an INTEGER when a number has no '.' or
// exponent and fits int64, a REAL otherwise. A cell that is an array or an
// object is an error: no server writes one.
type parser struct {
	b     []byte
	i     int
	depth int
	// buf holds a string's bytes when it has an escape or invalid UTF-8.
	buf []byte
	// strs boxes the strings met lately, so a repeated string costs nothing:
	// a string's hash picks a set of four entries, and a new one replaces
	// them in turn.
	strs [256]struct {
		s string
		v any
	}
	turn uint8
}

var (
	responseFields = []string{"id", "ok", "session_id", "columns", "rows", "affected", "err"}
	errorFields    = []string{"code", "message", "retryable", "backoff_ms"}
)

// frame parses body, a frame's, as an object or null, calling member with
// each member's decoded name to read its value.
func (p *parser) frame(body []byte, member func(key []byte) error) error {
	p.b, p.i, p.depth = body, 0, 0
	defer func() { p.b = nil }()
	p.ws()
	return p.null(func() error { return p.members(member) })
}

func (p *parser) response(body []byte) (*response, error) {
	resp := new(response)
	err := p.frame(body, func(key []byte) error {
		switch field(key, responseFields) {
		case 0:
			return p.int(&resp.ID)
		case 1:
			return p.bool(&resp.OK)
		case 2:
			return p.int(&resp.SessionID)
		case 3:
			return p.columns(&resp.Columns)
		case 4:
			return p.rows(&resp.Rows)
		case 5:
			return p.int(&resp.Affected)
		case 6:
			return p.wireError(&resp.Err)
		}
		return p.skip()
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

var requestFields = []string{"id", "op", "tenant", "sql"}

// request parses a request body as encoding/json decodes one into a request
// (see parser). An op is interned: the few there are cost nothing after the
// first.
func (p *parser) request(body []byte) (request, error) {
	var req request
	err := p.frame(body, func(key []byte) error {
		switch field(key, requestFields) {
		case 0:
			return p.int(&req.ID)
		case 1:
			return p.null(func() error {
				s, err := p.str()
				req.Op, _ = p.intern(s)
				return err
			})
		case 2:
			return p.text(&req.Tenant)
		case 3:
			return p.text(&req.SQL)
		}
		return p.skip()
	})
	if err != nil {
		return request{}, err
	}
	return req, nil
}

// field returns the index of the name key matches, or -1. The names differ
// under case folding, so at most one does.
func field(key []byte, names []string) int {
	for i, n := range names {
		if strings.EqualFold(string(key), n) {
			return i
		}
	}
	return -1
}

func (p *parser) fail(what string) error {
	if p.i >= len(p.b) {
		return fmt.Errorf("server: frame ends inside its JSON value: %w", io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("server: frame: %s at byte %d", what, p.i)
}

// peek returns the next byte, or 0 at the end of the body.
func (p *parser) peek() byte {
	if p.i < len(p.b) {
		return p.b[p.i]
	}
	return 0
}

func (p *parser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// lit reads the literal word.
func (p *parser) lit(word string) error {
	if len(p.b)-p.i < len(word) || string(p.b[p.i:p.i+len(word)]) != word {
		return p.fail("a malformed literal")
	}
	p.i += len(word)
	return nil
}

// null reads a null, which leaves a field as it was, or else runs other on
// the value.
func (p *parser) null(other func() error) error {
	if p.peek() == 'n' {
		return p.lit("null")
	}
	return other()
}

// list reads an array or an object, whose brackets are open and close,
// calling item to read each element or member.
func (p *parser) list(open, close byte, item func() error) error {
	if p.peek() != open {
		return p.fail("a value of the wrong type")
	}
	if p.depth++; p.depth > maxDepth {
		return p.fail("a value nested too deep")
	}
	p.i++
	if p.ws(); p.peek() == close {
		p.i++
		p.depth--
		return nil
	}
	for {
		if err := item(); err != nil {
			return err
		}
		switch p.ws(); p.peek() {
		case ',':
			p.i++
			p.ws()
		case close:
			p.i++
			p.depth--
			return nil
		default:
			return p.fail("a missing ',' or closing bracket")
		}
	}
}

// members reads an object, calling value with each key, decoded, to read its
// value.
func (p *parser) members(value func(key []byte) error) error {
	return p.list('{', '}', func() error {
		key, err := p.str()
		if err != nil {
			return err
		}
		if p.ws(); p.peek() != ':' {
			return p.fail("a missing ':'")
		}
		p.i++
		p.ws()
		return value(key)
	})
}

// skip reads any value.
func (p *parser) skip() error {
	switch c := p.peek(); {
	case c == '{':
		return p.members(func([]byte) error { return p.skip() })
	case c == '[':
		return p.list('[', ']', p.skip)
	case c == '"':
		_, err := p.str()
		return err
	case c == 't':
		return p.lit("true")
	case c == 'f':
		return p.lit("false")
	case c == 'n':
		return p.lit("null")
	}
	_, _, err := p.number()
	return err
}

func (p *parser) bool(dst *bool) error {
	return p.null(func() error {
		switch p.peek() {
		case 't':
			*dst = true
			return p.lit("true")
		case 'f':
			*dst = false
			return p.lit("false")
		}
		return p.fail("a field that is not a bool")
	})
}

func (p *parser) int(dst *int64) error {
	return p.null(func() error {
		tok, integer, err := p.number()
		if err != nil {
			return err
		}
		v, err := strconv.ParseInt(string(tok), 10, 64)
		if !integer || err != nil {
			return p.fail("a field that is not an int64")
		}
		*dst = v
		return nil
	})
}

func (p *parser) text(dst *string) error {
	return p.null(func() error {
		s, err := p.str()
		*dst = string(s)
		return err
	})
}

// columns reads the column names into *dst's backing array, grown a name at
// a time, as encoding/json does: a null name leaves what the array held there,
// and an empty array is a new one.
func (p *parser) columns(dst *[]string) error {
	if p.peek() == 'n' {
		*dst = nil
		return p.lit("null")
	}
	cols := (*dst)[:0]
	err := p.list('[', ']', func() error {
		i := len(cols)
		if i < cap(cols) {
			cols = cols[:i+1]
		} else {
			cols = append(cols, "")
		}
		return p.null(func() error {
			s, err := p.str()
			cols[i], _ = p.intern(s)
			return err
		})
	})
	if len(cols) == 0 {
		cols = []string{}
	}
	*dst = cols
	return err
}

// rows reads the rows, every cell straight into one slab that each row is a
// full slice expression of. The slab and the rows are presized: a cell but
// the last is followed by a ',', and a row but a null one opens with a '[',
// so the counts of those in the rest of the body bound both.
func (p *parser) rows(dst *[][]any) error {
	if p.peek() == 'n' {
		*dst = nil
		return p.lit("null")
	}
	rest := p.b[p.i:]
	slab := make([]any, 0, bytes.Count(rest, []byte{','})+1)
	rows := make([][]any, 0, bytes.Count(rest, []byte{'['}))
	err := p.list('[', ']', func() error {
		if p.peek() == 'n' {
			rows = append(rows, nil)
			return p.lit("null")
		}
		from := len(slab)
		err := p.list('[', ']', func() error {
			v, err := p.cell()
			slab = append(slab, v)
			return err
		})
		rows = append(rows, slab[from:len(slab):len(slab)])
		return err
	})
	if err == nil {
		*dst = rows
	}
	return err
}

// cell reads one cell.
func (p *parser) cell() (any, error) {
	switch c := p.peek(); c {
	case '"':
		s, err := p.str()
		_, v := p.intern(s)
		return v, err
	case 'n':
		return nil, p.lit("null")
	case 't':
		return true, p.lit("true")
	case 'f':
		return false, p.lit("false")
	case '[', '{':
		return nil, p.fail("a cell that is an array or an object")
	}
	if v, ok := p.shortInt(); ok {
		return v, nil
	}
	tok, integer, err := p.number()
	if err != nil {
		return nil, err
	}
	if integer {
		if v, err := strconv.ParseInt(string(tok), 10, 64); err == nil {
			return v, nil
		}
	}
	f, _ := strconv.ParseFloat(string(tok), 64) // a JSON number always parses, ±Inf past the float range
	return f, nil
}

// shortInt reads the common cell: an integer of at most 18 digits, which
// cannot overflow, followed by neither a fraction nor an exponent. It reads
// nothing and returns false for any other.
func (p *parser) shortInt() (int64, bool) {
	b, i := p.b, p.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	from := i
	var v int64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		v = v*10 + int64(b[i]-'0')
	}
	switch n := i - from; {
	case n == 0 || n > 18 || n > 1 && b[from] == '0':
		return 0, false
	case i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E'):
		return 0, false
	}
	if neg {
		v = -v
	}
	p.i = i
	return v, true
}

// intern returns s as a string and boxed, from strs when s was met lately.
func (p *parser) intern(s []byte) (string, any) {
	if len(s) == 0 {
		return "", ""
	}
	h := uint32(2166136261) // FNV-1a
	for _, c := range s {
		h = (h ^ uint32(c)) * 16777619
	}
	set := p.strs[h%uint32(len(p.strs))&^3:][:4]
	for i := range set {
		if e := &set[i]; e.v != nil && e.s == string(s) {
			return e.s, e.v
		}
	}
	p.turn++
	e := &set[p.turn%4]
	e.s = string(s)
	e.v = e.s
	return e.s, e.v
}

func (p *parser) wireError(dst **wireError) error {
	if p.peek() == 'n' {
		*dst = nil
		return p.lit("null")
	}
	if *dst == nil {
		*dst = new(wireError)
	}
	e := *dst
	return p.members(func(key []byte) error {
		switch field(key, errorFields) {
		case 0:
			return p.text(&e.Code)
		case 1:
			return p.text(&e.Message)
		case 2:
			return p.bool(&e.Retryable)
		case 3:
			return p.int(&e.BackoffMs)
		}
		return p.skip()
	})
}

// number reads a JSON number and returns its bytes, and whether it is written
// as an integer: no fraction and no exponent.
func (p *parser) number() (tok []byte, integer bool, err error) {
	start := p.i
	if p.peek() == '-' {
		p.i++
	}
	switch c := p.peek(); {
	case c == '0':
		p.i++
	case '1' <= c && c <= '9':
		p.digits()
	default:
		return nil, false, p.fail("an invalid value")
	}
	integer = true
	if p.peek() == '.' {
		p.i++
		if !p.digits() {
			return nil, false, p.fail("a number without digits after its '.'")
		}
		integer = false
	}
	if c := p.peek(); c == 'e' || c == 'E' {
		p.i++
		if c := p.peek(); c == '+' || c == '-' {
			p.i++
		}
		if !p.digits() {
			return nil, false, p.fail("a number without digits in its exponent")
		}
		integer = false
	}
	return p.b[start:p.i], integer, nil
}

// digits reads a run of decimal digits and reports whether there was one.
func (p *parser) digits() bool {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i > start
}

// str reads a string and returns its bytes decoded: a slice of the body when
// it holds no escape and no invalid UTF-8, else decoded into p.buf. Either is
// valid until the next string is read.
func (p *parser) str() ([]byte, error) {
	if p.peek() != '"' {
		return nil, p.fail("a value that is not a string")
	}
	p.i++
	start := p.i
	for p.i < len(p.b) {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], nil
		case c == '\\' || c < 0x20:
			return p.unquote(start)
		case c < utf8.RuneSelf:
			p.i++
		default:
			r, size := utf8.DecodeRune(p.b[p.i:])
			if r == utf8.RuneError && size == 1 {
				return p.unquote(start)
			}
			p.i += size
		}
	}
	return nil, p.fail("an unterminated string")
}

// unquote decodes the rest of a string, from p.i, after its plain bytes from
// start, as encoding/json unquotes one: each byte of invalid UTF-8, and a
// \u escape of a surrogate not paired with the next escape, becomes U+FFFD.
func (p *parser) unquote(start int) ([]byte, error) {
	buf := append(p.buf[:0], p.b[start:p.i]...)
	defer func() { p.buf = buf[:0] }()
	for p.i < len(p.b) {
		c := p.b[p.i]
		switch {
		case c == '"':
			p.i++
			return buf, nil
		case c < 0x20:
			return nil, p.fail("a control character in a string")
		case c == '\\':
			if p.i+1 >= len(p.b) {
				return nil, p.fail("an unterminated string")
			}
			p.i += 2
			switch e := p.b[p.i-1]; e {
			case '"', '\\', '/':
				buf = append(buf, e)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r := p.hex4(p.i)
				if r < 0 {
					return nil, p.fail("an invalid \\u escape")
				}
				p.i += 4
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if p.i+1 < len(p.b) && p.b[p.i] == '\\' && p.b[p.i+1] == 'u' {
						r2 = p.hex4(p.i + 2)
					}
					if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
						p.i += 6
					}
				}
				buf = utf8.AppendRune(buf, r)
			default:
				return nil, p.fail("an invalid escape")
			}
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			p.i++
		default:
			r, size := utf8.DecodeRune(p.b[p.i:])
			buf = utf8.AppendRune(buf, r)
			p.i += size
		}
	}
	return nil, p.fail("an unterminated string")
}

// hex4 reads the four hex digits at i, or returns -1.
func (p *parser) hex4(i int) rune {
	if i+4 > len(p.b) {
		return -1
	}
	var r rune
	for _, c := range p.b[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
