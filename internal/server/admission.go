package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/diag"
	"repro/internal/engine"
)

// TenantProfile configures one tenant's slice of the server.
type TenantProfile struct {
	// Name identifies the tenant; clients select it in the hello frame.
	Name string
	// Limits are stamped on every statement the tenant runs (rows, groups,
	// pivot columns, bytes, per-statement timeout).
	Limits engine.Limits
	// MaxSessions caps the tenant's concurrent sessions; 0 means
	// unlimited. Beyond the cap, connects are refused with PCT211.
	MaxSessions int
	// MaxConcurrent caps the tenant's concurrently executing statements;
	// 0 means the default of 4.
	MaxConcurrent int
	// MaxQueue bounds statements waiting for an execution slot. 0 means
	// no queue: at the concurrency cap, statements are refused with
	// PCT211 immediately. Beyond MaxQueue waiting statements, new ones
	// are shed with PCT210.
	MaxQueue int
	// StatementBytes is the reservation one admitted statement takes from
	// the server's shared byte pool; 0 falls back to Limits.MaxBytes, and
	// if both are 0 the statement reserves nothing.
	StatementBytes int64
}

// defaultMaxConcurrent applies when a profile leaves MaxConcurrent unset.
const defaultMaxConcurrent = 4

func (p TenantProfile) maxConcurrent() int {
	if p.MaxConcurrent <= 0 {
		return defaultMaxConcurrent
	}
	return p.MaxConcurrent
}

func (p TenantProfile) stmtBytes() int64 {
	if p.StatementBytes > 0 {
		return p.StatementBytes
	}
	return p.Limits.MaxBytes
}

// admissionError is a typed admission refusal: queue full (PCT210), tenant
// cap (PCT211), or draining (PCT212). Every one is retryable — the
// statement never started — and carries the server's backoff hint.
type admissionError struct {
	// PCTCode is the refusal's diagnostic code (PCT210..PCT212).
	PCTCode string
	// Tenant is the refused tenant.
	Tenant string
	// Reason says which cap refused the work.
	Reason string
	// Backoff is the hint: wait at least this long before retrying.
	Backoff time.Duration
}

// Error renders the refusal.
func (e *admissionError) Error() string {
	return fmt.Sprintf("server: %s (tenant %q)", e.Reason, e.Tenant)
}

// Code returns the PCT21x diagnostic code.
func (e *admissionError) Code() string { return e.PCTCode }

// backoffFor scales the retry hint with the observed queue depth, capped so
// a deep queue never tells clients to go away for good.
func backoffFor(depth int) time.Duration {
	d := 25 * time.Millisecond * time.Duration(depth+1)
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

func drainErr(tenant string) *admissionError {
	return &admissionError{
		PCTCode: diag.CodeDrainRejected,
		Tenant:  tenant,
		Reason:  "server draining",
		Backoff: 250 * time.Millisecond,
	}
}

// tenantState is one tenant's live admission ledger.
type tenantState struct {
	prof     TenantProfile
	sessions int
	running  int
	queued   int
}

// waiter is one statement queued for admission.
type waiter struct {
	ts    *tenantState
	bytes int64
	// ch delivers the outcome exactly once: nil grants, an admissionError
	// sheds (drain).
	ch chan error
}

// admission is the server's admission controller: per-tenant session and
// concurrency caps, bounded per-tenant queues, and one shared byte pool.
//
// Fairness is FIFO with per-tenant caps: waiters live on one global
// arrival-ordered list, and when capacity frees the list is scanned
// first-fit — a tenant stuck at its cap cannot head-of-line-block another
// tenant's grant, while within a tenant, order is strictly preserved (a
// statement is never admitted while an earlier one of the same tenant
// waits).
type admission struct {
	mu       sync.Mutex
	def      TenantProfile
	tenants  map[string]*tenantState
	pool     int64 // remaining shared bytes
	poolSize int64 // 0 disables byte admission
	waiters  []*waiter
	draining bool
}

func newAdmission(def TenantProfile, profiles []TenantProfile, sharedBytes int64) *admission {
	a := &admission{
		def:      def,
		tenants:  make(map[string]*tenantState, len(profiles)),
		pool:     sharedBytes,
		poolSize: sharedBytes,
	}
	for _, p := range profiles {
		a.tenants[p.Name] = &tenantState{prof: p}
	}
	return a
}

// tenantLocked resolves (or lazily creates, from the default profile) the
// tenant's state. Caller holds mu.
func (a *admission) tenantLocked(name string) *tenantState {
	ts, ok := a.tenants[name]
	if !ok {
		prof := a.def
		prof.Name = name
		ts = &tenantState{prof: prof}
		a.tenants[name] = ts
	}
	return ts
}

// connect admits one session for the tenant, or refuses it with PCT211
// (session cap) / PCT212 (draining).
func (a *admission) connect(name string) (*tenantState, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.draining {
		mRejDrain.Inc()
		return nil, drainErr(name)
	}
	ts := a.tenantLocked(name)
	if m := ts.prof.MaxSessions; m > 0 && ts.sessions >= m {
		mRejTenantCap.Inc()
		return nil, &admissionError{
			PCTCode: diag.CodeTenantCap,
			Tenant:  name,
			Reason:  fmt.Sprintf("tenant at its session cap (%d)", m),
			Backoff: 500 * time.Millisecond,
		}
	}
	ts.sessions++
	return ts, nil
}

func (a *admission) disconnect(ts *tenantState) {
	a.mu.Lock()
	ts.sessions--
	a.mu.Unlock()
}

// grant is one admitted statement's execution slot plus its byte
// reservation; release returns both (idempotently) and promotes waiters.
type grant struct {
	a     *admission
	ts    *tenantState
	bytes int64
	once  sync.Once
}

func (g *grant) release() {
	g.once.Do(func() {
		g.a.mu.Lock()
		g.ts.running--
		g.a.pool += g.bytes
		g.a.promoteLocked()
		g.a.mu.Unlock()
	})
}

// eligibleLocked reports whether one more statement for ts fits right now.
func (a *admission) eligibleLocked(ts *tenantState, bytes int64) bool {
	if ts.running >= ts.prof.maxConcurrent() {
		return false
	}
	if a.poolSize > 0 && bytes > a.pool {
		return false
	}
	return true
}

// grantLocked takes the slot and the byte reservation. Caller holds mu and
// has checked eligibility.
func (a *admission) grantLocked(ts *tenantState, bytes int64) *grant {
	ts.running++
	a.pool -= bytes
	return &grant{a: a, ts: ts, bytes: bytes}
}

// promoteLocked grants eligible waiters in arrival order (first-fit across
// tenants, strict FIFO within one). Called whenever capacity frees.
func (a *admission) promoteLocked() {
	kept := a.waiters[:0]
	for _, w := range a.waiters {
		if a.eligibleLocked(w.ts, w.bytes) {
			w.ts.running++
			a.pool -= w.bytes
			w.ts.queued--
			w.ch <- nil
		} else {
			kept = append(kept, w)
		}
	}
	for i := len(kept); i < len(a.waiters); i++ {
		a.waiters[i] = nil
	}
	a.waiters = kept
	mQueueDepth.Set(int64(len(a.waiters)))
}

// removeWaiterLocked unlinks w; false means w was already granted or shed.
func (a *admission) removeWaiterLocked(w *waiter) bool {
	for i, x := range a.waiters {
		if x == w {
			a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// admit blocks until the statement may run, the context is cancelled, or
// the controller refuses it with a typed PCT21x error.
func (a *admission) admit(ctx context.Context, ts *tenantState) (*grant, error) {
	a.mu.Lock()
	name := ts.prof.Name
	if a.draining {
		a.mu.Unlock()
		mRejDrain.Inc()
		return nil, drainErr(name)
	}
	bytes := ts.prof.stmtBytes()
	if a.poolSize == 0 {
		bytes = 0
	} else if bytes > a.poolSize {
		// A reservation larger than the whole pool would wait forever;
		// clamp it to "the whole pool".
		bytes = a.poolSize
	}
	// The queue-empty check keeps within-tenant FIFO: a statement never
	// overtakes an earlier one of its own tenant.
	if ts.queued == 0 && a.eligibleLocked(ts, bytes) {
		g := a.grantLocked(ts, bytes)
		a.mu.Unlock()
		mAdmitted.Inc()
		return g, nil
	}
	if ts.prof.MaxQueue <= 0 {
		a.mu.Unlock()
		mRejTenantCap.Inc()
		return nil, &admissionError{
			PCTCode: diag.CodeTenantCap,
			Tenant:  name,
			Reason:  fmt.Sprintf("tenant at its concurrent-statement cap (%d) with no queue", ts.prof.maxConcurrent()),
			Backoff: 100 * time.Millisecond,
		}
	}
	if ts.queued >= ts.prof.MaxQueue {
		depth := ts.queued
		a.mu.Unlock()
		mRejQueueFull.Inc()
		return nil, &admissionError{
			PCTCode: diag.CodeQueueFull,
			Tenant:  name,
			Reason:  fmt.Sprintf("admission queue full (%d waiting)", depth),
			Backoff: backoffFor(depth),
		}
	}
	w := &waiter{ts: ts, bytes: bytes, ch: make(chan error, 1)}
	ts.queued++
	a.waiters = append(a.waiters, w)
	mQueueDepth.Set(int64(len(a.waiters)))
	a.mu.Unlock()

	select {
	case err := <-w.ch:
		if err != nil {
			mRejDrain.Inc() // only drain sheds queued waiters
			return nil, err
		}
		mAdmitted.Inc()
		return &grant{a: a, ts: ts, bytes: w.bytes}, nil
	case <-ctx.Done():
		a.mu.Lock()
		if a.removeWaiterLocked(w) {
			ts.queued--
			mQueueDepth.Set(int64(len(a.waiters)))
			a.mu.Unlock()
			return nil, engine.CheckCtx(ctx)
		}
		a.mu.Unlock()
		// The outcome raced the cancellation; consume it so a won slot is
		// returned rather than leaked.
		if err := <-w.ch; err != nil {
			return nil, err
		}
		g := &grant{a: a, ts: ts, bytes: w.bytes}
		g.release()
		return nil, engine.CheckCtx(ctx)
	}
}

// drain flips the controller into refuse-everything mode: every queued
// waiter is shed with PCT212 and future connects/admits are refused.
func (a *admission) drain() {
	a.mu.Lock()
	a.draining = true
	ws := a.waiters
	a.waiters = nil
	for _, w := range ws {
		w.ts.queued--
		w.ch <- drainErr(w.ts.prof.Name)
	}
	mQueueDepth.Set(0)
	a.mu.Unlock()
}
