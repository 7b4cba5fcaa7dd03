package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/diag"
	"repro/internal/engine"
	"repro/pctagg"
)

// Config configures a Server. The zero value of each field picks a sane
// default; only Addr is required.
type Config struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for an ephemeral
	// port, readable from Addr() after Start).
	Addr string
	// DefaultTenant is the profile applied to tenants with no explicit
	// entry in Tenants; its Name field is ignored.
	DefaultTenant TenantProfile
	// Tenants are the explicitly configured tenant profiles.
	Tenants []TenantProfile
	// SharedBytes is the server-wide pool admitted statements reserve
	// their byte budget from; 0 disables byte admission.
	SharedBytes int64
	// SessionTimeout closes sessions idle past it with PCT213; 0 means
	// sessions never idle out. Time spent with statements in flight does
	// not count as idle.
	SessionTimeout time.Duration
	// WriteTimeout bounds one response frame write, so a slow client
	// stalls only its own session (default 5s).
	WriteTimeout time.Duration
	// DrainTimeout bounds graceful drain: past it, in-flight statements
	// are cancelled through the governor (PCT200) instead of awaited
	// (default 10s).
	DrainTimeout time.Duration
	// Clock is the server's time source; nil means the wall clock. Tests
	// inject a fake to drive the drain deadline deterministically.
	Clock Clock
	// Log receives lifecycle lines; nil discards them.
	Log io.Writer
}

// Server lifecycle states.
const (
	stateRunning int32 = iota
	stateDraining
	stateStopped
)

// Server is a multi-tenant percentage-aggregation query server over one
// embedded DB. Statements from all sessions run concurrently under
// admission control; DML serializes behind an RW lock because storage
// tables have no internal locks (reads run concurrently, writes alone).
type Server struct {
	cfg   Config
	db    *pctagg.DB
	adm   *admission
	clock Clock
	logd  *log.Logger

	ln         net.Listener
	state      atomic.Int32
	hardCtx    context.Context    // parent of every session context
	hardCancel context.CancelFunc // fired at the drain deadline / hard stop
	drainCh    chan struct{}      // closed when drain begins
	forceCh    chan struct{}      // closed by Close to cut a drain short

	wg         sync.WaitGroup // accept loop + connection handlers
	inflightWG sync.WaitGroup // dispatched statements
	dmlMu      sync.RWMutex   // queries share, DML excludes

	sessMu   sync.Mutex
	sessions map[int64]*session
	nextSID  atomic.Int64

	shutdownOnce sync.Once
	forceOnce    sync.Once
	shutdownErr  error

	// gate, when set, runs on the statement path after admission — a
	// test-only hook for holding statements in flight deterministically.
	// Atomic so a test can install it on a live server.
	gate atomic.Pointer[gateFunc]
}

type gateFunc = func(ctx context.Context)

// New builds a Server over db. Call Start to begin serving.
func New(db *pctagg.DB, cfg Config) *Server {
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 5 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	clk := cfg.Clock
	if clk == nil {
		clk = realClock{}
	}
	out := cfg.Log
	if out == nil {
		out = io.Discard
	}
	s := &Server{
		cfg:      cfg,
		db:       db,
		adm:      newAdmission(cfg.DefaultTenant, cfg.Tenants, cfg.SharedBytes),
		clock:    clk,
		logd:     log.New(out, "pctserve: ", log.LstdFlags),
		drainCh:  make(chan struct{}),
		forceCh:  make(chan struct{}),
		sessions: make(map[int64]*session),
	}
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())
	return s
}

// Start registers the pct_stat_sessions virtual table, binds the listener,
// and begins accepting. It returns immediately; use Shutdown or Close to
// stop.
func (s *Server) Start() error {
	if err := s.db.Engine().RegisterVirtual("pct_stat_sessions", sessionsSchema, s.buildSessions); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		s.db.Engine().UnregisterVirtual("pct_stat_sessions")
		return err
	}
	s.ln = ln
	s.logd.Printf("listening on %s", ln.Addr())
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound listen address (nil before Start).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown drains the server gracefully: stop admitting (queued statements
// shed with PCT212, new connects refused), wait for in-flight statements up
// to DrainTimeout, then cancel the stragglers through the governor (PCT200)
// and close everything. It is idempotent; concurrent callers share one
// drain.
func (s *Server) Shutdown() error {
	s.shutdownOnce.Do(func() { s.shutdownErr = s.drain() })
	return s.shutdownErr
}

// Close stops the server hard: any in-progress drain is cut short and
// in-flight statements are cancelled immediately.
func (s *Server) Close() error {
	s.forceOnce.Do(func() { close(s.forceCh) })
	return s.Shutdown()
}

// drain is the graceful-shutdown state machine: Running → Draining →
// Stopped. It runs exactly once, under shutdownOnce.
func (s *Server) drain() error {
	if !s.state.CompareAndSwap(stateRunning, stateDraining) {
		return nil
	}
	mDrains.Inc()
	close(s.drainCh)
	s.adm.drain()
	s.logd.Printf("draining: refusing new work, waiting up to %s for in-flight statements", s.cfg.DrainTimeout)

	done := make(chan struct{})
	go func() {
		s.inflightWG.Wait()
		close(done)
	}()
	var timedOut bool
	select {
	case <-done:
	case <-s.forceCh:
		timedOut = true
	case <-s.clock.After(s.cfg.DrainTimeout):
		timedOut = true
	}
	if timedOut {
		s.logd.Printf("drain deadline: cancelling in-flight statements")
		s.hardCancel()
		<-done
	}
	s.stop()
	if timedOut {
		return errors.New("server: drain deadline exceeded; in-flight statements were cancelled")
	}
	return nil
}

// stop closes the listener and every session connection, waits for
// connection handlers to exit, and unregisters the sessions table.
func (s *Server) stop() {
	s.state.Store(stateStopped)
	s.hardCancel()
	if s.ln != nil {
		s.ln.Close()
	}
	s.sessMu.Lock()
	for _, sess := range s.sessions {
		sess.conn.Close()
	}
	s.sessMu.Unlock()
	s.wg.Wait()
	s.db.Engine().UnregisterVirtual("pct_stat_sessions")
	s.logd.Printf("stopped")
}

// acceptLoop accepts connections until the listener closes. During drain
// it keeps accepting so late connects get a typed PCT212 refusal instead of
// a dropped connection.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.state.Load() == stateStopped || errors.Is(err, net.ErrClosed) {
				return
			}
			s.logd.Printf("accept: %v", err)
			time.Sleep(5 * time.Millisecond)
			continue
		}
		mConnects.Inc()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// refuse answers a connection that never became a session with one typed
// error frame, then closes it.
func (s *Server) refuse(conn net.Conn, id int64, we *wireError) {
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	if buf, err := appendResponse(nil, &response{ID: id, Err: we}); err == nil {
		conn.Write(buf)
	}
	conn.Close()
}

// serveConn owns one client connection: chaos/drain gate, hello handshake,
// session registration, then the read loop. A panic anywhere in the
// handler is contained to this connection.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	defer func() {
		if r := recover(); r != nil {
			mConnPanics.Inc()
			s.logd.Printf("connection panic contained: %v", engine.NewPanicError("server connection", r))
		}
	}()
	if err := chaos.Hit(chaos.ServerAccept); err != nil {
		s.refuse(conn, 0, &wireError{Message: "server: " + err.Error()})
		return
	}
	if s.state.Load() != stateRunning {
		s.refuse(conn, 0, wireErrorFrom(drainErr("")))
		return
	}

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	fr := newFrameReader(conn)
	hello, err := fr.request()
	if err != nil {
		return
	}
	if hello.Op != opHello {
		s.refuse(conn, hello.ID, &wireError{Message: fmt.Sprintf("server: expected hello, got %q", hello.Op)})
		return
	}
	tenant := hello.Tenant
	if tenant == "" {
		tenant = "default"
	}
	ts, err := s.adm.connect(tenant)
	if err != nil {
		s.refuse(conn, hello.ID, wireErrorFrom(err))
		return
	}
	defer s.adm.disconnect(ts)

	ctx, stop := context.WithCancel(s.hardCtx)
	defer stop()
	sess := &session{
		id:      s.nextSID.Add(1),
		tenant:  tenant,
		remote:  conn.RemoteAddr().String(),
		conn:    conn,
		ts:      ts,
		srv:     s,
		started: s.clock.Now(),
		ctx:     ctx,
		stop:    stop,
	}
	s.addSession(sess)
	defer s.removeSession(sess)
	mSessions.Add(1)
	defer mSessions.Add(-1)

	if err := sess.write(&response{ID: hello.ID, OK: true, SessionID: sess.id}); err != nil {
		return
	}
	s.readLoop(sess, fr)
}

// readLoop decodes request frames until the client leaves, the connection
// breaks, or the session idles out (PCT213). Queries are dispatched onto
// their own goroutines, so clients may pipeline. An idle deadline that passes
// while statements are in flight is no idle timeout: the loop reads on, and
// fr resumes a frame the deadline cut.
func (s *Server) readLoop(sess *session, fr *frameReader) {
	for {
		if to := s.cfg.SessionTimeout; to > 0 {
			sess.conn.SetReadDeadline(time.Now().Add(to))
		} else {
			sess.conn.SetReadDeadline(time.Time{})
		}
		req, err := fr.request()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if sess.inflight.Load() > 0 {
					// Not idle: statements are still running.
					continue
				}
				mSessionTimeouts.Inc()
				sess.write(&response{Err: &wireError{
					Code:      diag.CodeSessionTimeout,
					Message:   "server: session closed after idle timeout",
					Retryable: true,
				}})
			}
			return
		}
		switch req.Op {
		case opQuery:
			s.dispatch(sess, req)
		case opCancel:
			sess.cancelStatement(req.ID)
		case opPing:
			sess.write(&response{ID: req.ID, OK: true})
		case opClose:
			sess.write(&response{ID: req.ID, OK: true})
			return
		default:
			sess.write(&response{ID: req.ID, Err: &wireError{Message: fmt.Sprintf("server: unknown op %q", req.Op)}})
		}
	}
}

// dispatch runs one statement on its own goroutine. The statement context
// descends from the session context (itself under the server's hard
// context), so client cancel, session teardown, and the drain deadline all
// stop it through the same governor path.
func (s *Server) dispatch(sess *session, req request) {
	ctx, cancel := context.WithCancel(sess.ctx)
	seq := sess.addCancel(req.ID, cancel)
	s.inflightWG.Add(1)
	sess.inflight.Add(1)
	go func() {
		defer s.inflightWG.Done()
		defer sess.inflight.Add(-1)
		defer sess.delCancel(seq)
		defer cancel()
		resp := s.runStatement(ctx, sess, req)
		resp.ID = req.ID
		sess.write(resp)
	}()
}

// runStatement is the admission + execution path for one statement. Panics
// anywhere on it are contained into PCT206 wire errors with the admission
// grant released.
func (s *Server) runStatement(ctx context.Context, sess *session, req request) (resp *response) {
	defer func() {
		if r := recover(); r != nil {
			resp = &response{Err: wireErrorFrom(engine.NewPanicError("server dispatch", r))}
		}
	}()
	if strings.TrimSpace(req.SQL) == "" {
		return &response{Err: &wireError{Message: "server: empty query"}}
	}
	if err := chaos.Hit(chaos.ServerAdmit); err != nil {
		sess.rejected.Add(1)
		return &response{Err: wireErrorFrom(err)}
	}
	waitStart := time.Now()
	sess.queued.Add(1)
	g, err := s.adm.admit(ctx, sess.ts)
	sess.queued.Add(-1)
	if err != nil {
		sess.rejected.Add(1)
		return &response{Err: wireErrorFrom(err)}
	}
	defer g.release()
	mQueueWaitNs.Observe(time.Since(waitStart).Nanoseconds())

	limits := sess.ts.prof.Limits
	if g.bytes > 0 {
		limits.MaxBytes = g.bytes
	}
	ctx = engine.WithLimits(ctx, limits)

	if err := chaos.Hit(chaos.ServerDispatch); err != nil {
		return &response{Err: wireErrorFrom(err)}
	}
	if f := s.gate.Load(); f != nil {
		(*f)(ctx)
	}

	start := time.Now()
	if isQuerySQL(req.SQL) {
		s.dmlMu.RLock()
		res, err := s.db.QueryTypedCtx(ctx, req.SQL)
		s.dmlMu.RUnlock()
		mStatementNs.Observe(time.Since(start).Nanoseconds())
		if err != nil {
			return &response{Err: wireErrorFrom(err)}
		}
		sess.statements.Add(1)
		return &response{OK: true, Columns: res.Columns, res: res}
	}
	s.dmlMu.Lock()
	n, err := s.db.ExecCtx(ctx, req.SQL)
	s.dmlMu.Unlock()
	mStatementNs.Observe(time.Since(start).Nanoseconds())
	if err != nil {
		return &response{Err: wireErrorFrom(err)}
	}
	sess.statements.Add(1)
	return &response{OK: true, Affected: n}
}

// isQuerySQL reports whether the statement reads (concurrent) rather than
// writes (exclusive). The dialect has no CTEs, so a prefix check is exact.
func isQuerySQL(sql string) bool {
	t := strings.TrimSpace(sql)
	return len(t) >= 6 && (strings.EqualFold(t[:6], "SELECT") || strings.EqualFold(t[:6], "EXPLAI"))
}

// wireErrorFrom maps an error to its wire form, preserving PCT codes and
// the admission layer's retry contract.
func wireErrorFrom(err error) *wireError {
	we := &wireError{Message: err.Error(), Code: diag.CodeOf(err)}
	var adm *admissionError
	if errors.As(err, &adm) {
		we.Retryable = true
		we.BackoffMs = adm.Backoff.Milliseconds()
	}
	return we
}

func (s *Server) addSession(sess *session) {
	s.sessMu.Lock()
	s.sessions[sess.id] = sess
	s.sessMu.Unlock()
}

func (s *Server) removeSession(sess *session) {
	s.sessMu.Lock()
	delete(s.sessions, sess.id)
	s.sessMu.Unlock()
}

// session is one connected client.
type session struct {
	id      int64
	tenant  string
	remote  string
	conn    net.Conn
	ts      *tenantState
	srv     *Server
	started time.Time

	ctx  context.Context
	stop context.CancelFunc

	writeMu sync.Mutex

	// mu guards the cancels of the statements in flight, in dispatch order.
	// Pipelined statements may share a request ID, so each carries a
	// sequence number of its own, and a cancel reaches every one its ID names.
	mu      sync.Mutex
	cancels []stmtCancel
	seq     int64

	inflight   atomic.Int64 // dispatched, not yet answered
	queued     atomic.Int64 // waiting in admission
	statements atomic.Int64 // completed successfully
	rejected   atomic.Int64 // refused by admission (or an armed fault)
}

// frameBufs recycles response frame buffers of up to maxPooledFrame bytes: a
// frame is written whole, and its buffer is free once Write returns.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledFrame = 1 << 20

// write sends one frame under the write mutex with a per-frame deadline. A
// response the wire cannot carry — a non-finite REAL, a frame over maxFrame —
// answers its request with PCT214 instead, and the session goes on. A failed
// or timed-out write cuts the whole session: a client that cannot drain its
// responses must not pin server state.
func (sess *session) write(resp *response) error {
	bp := frameBufs.Get().(*[]byte)
	start := time.Now()
	buf, err := appendResponse((*bp)[:0], resp)
	if err != nil {
		buf, err = appendResponse(buf, &response{ID: resp.ID, Err: &wireError{Code: diag.CodeUnencodable, Message: err.Error()}})
	}
	mEncodeNs.Observe(time.Since(start).Nanoseconds())
	sess.writeMu.Lock()
	defer sess.writeMu.Unlock()
	if err == nil {
		sess.conn.SetWriteDeadline(time.Now().Add(sess.srv.cfg.WriteTimeout))
		_, err = sess.conn.Write(buf)
	}
	if cap(buf) <= maxPooledFrame {
		*bp = buf
		frameBufs.Put(bp)
	}
	if err != nil {
		sess.stop()
		sess.conn.Close()
		return err
	}
	return nil
}

// stmtCancel is the cancel func of one statement in flight: its request ID
// and its session-unique sequence number.
type stmtCancel struct {
	id, seq int64
	cancel  context.CancelFunc
}

// addCancel registers the cancel of a statement dispatched under request ID
// id and returns its sequence number, which delCancel takes.
func (sess *session) addCancel(id int64, cancel context.CancelFunc) int64 {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.seq++
	sess.cancels = append(sess.cancels, stmtCancel{id: id, seq: sess.seq, cancel: cancel})
	return sess.seq
}

// delCancel unregisters the statement of sequence number seq, and only it.
func (sess *session) delCancel(seq int64) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.cancels = slices.DeleteFunc(sess.cancels, func(c stmtCancel) bool { return c.seq == seq })
}

// cancelStatement cancels every in-flight statement with the given request
// ID; unknown IDs (already finished) are ignored.
func (sess *session) cancelStatement(id int64) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	for _, c := range sess.cancels {
		if c.id == id {
			c.cancel() // a CancelFunc returns at once; the statement stops on its own goroutine
		}
	}
}
