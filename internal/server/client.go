package server

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
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
		readerDone: make(chan struct{}),
	}
	if err := writeFrame(conn, &request{ID: 1, Op: opHello, Tenant: tenant}); err != nil {
		conn.Close()
		return nil, err
	}
	var resp response
	if err := readFrame(conn, &resp); err != nil {
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
		resp := new(response)
		err := readFrame(c.conn, resp)
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
	return &Result{Columns: resp.Columns, Rows: decodeRows(resp.Rows), Affected: resp.Affected}, nil
}

// decodeRows converts json.Number cells back to int64/float64 so results
// round-trip to the same Go types pctagg returns: a number with a '.' or an
// exponent is a REAL (wireRows writes every REAL so), any other an INTEGER
// unless it lies outside int64's range.
func decodeRows(rows [][]any) [][]any {
	for _, row := range rows {
		for i, cell := range row {
			n, ok := cell.(json.Number)
			if !ok {
				continue
			}
			if !strings.ContainsAny(string(n), ".eE") {
				if v, err := strconv.ParseInt(string(n), 10, 64); err == nil {
					row[i] = v
					continue
				}
			}
			row[i], _ = n.Float64() // a JSON number always parses, ±Inf past the float range
		}
	}
	return rows
}
