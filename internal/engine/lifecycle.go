package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/diag"
	"repro/internal/obs"
)

// Query-lifecycle governance: cooperative cancellation, resource budgets,
// and panic containment. Every statement executes under a governor — the
// statement's context plus its effective Limits plus shared progress
// counters — threaded through execCtx into every long loop (scans, join
// builds, folds, partition workers, merges, DML rewrites). Loops check the
// governor once per govStride rows, so the hot path pays one pointer test
// and an occasional atomic add; a cancelled or over-budget statement stops
// within a bounded number of rows (see TestCancelBoundedRows).
//
// All governance failures are typed errors carrying stable PCT2xx codes
// (see internal/diag), so callers and metrics can tell a user cancellation
// from a deadline from a limit hit from a contained panic without string
// matching.

// Limits bounds the resources one statement may consume. The zero value
// means unlimited. Limits are enforced with typed errors instead of
// exhausting memory: MaxRows and MaxBytes bound materialized state (row
// buffers, join build sides, staged DML), MaxGroups bounds aggregation hash
// state, MaxPivotColumns bounds horizontal result width, and Timeout is a
// statement's deadline. The deadline covers the statements nested in it (a
// percentage query's generated steps); the budgets apply to each statement.
type Limits struct {
	// MaxRows caps rows materialized by one statement (result rows, join
	// build sides, a window's collected input, staged DML rows),
	// cumulatively.
	MaxRows int64
	// MaxGroups caps distinct aggregation groups (GROUP BY and DISTINCT).
	MaxGroups int64
	// MaxPivotColumns caps horizontal (Hpct/Hagg) result columns; the core
	// planner enforces it at plan time, before any evaluation runs.
	MaxPivotColumns int
	// MaxBytes caps the approximate bytes of materialized values.
	MaxBytes int64
	// Timeout, when positive, is the deadline of the statement a caller
	// sent, every statement nested in it included.
	Timeout time.Duration
}

// zero reports whether no limit is set.
func (l Limits) zero() bool { return l == Limits{} }

// SetLimits installs engine-wide default limits applied to every statement
// that does not carry its own (see WithLimits). Safe for concurrent use.
func (e *Engine) SetLimits(l Limits) { e.limits.Store(&l) }

// Limits returns the engine-wide default limits.
func (e *Engine) Limits() Limits {
	if l := e.limits.Load(); l != nil {
		return *l
	}
	return Limits{}
}

// limitsKey carries per-call Limits in a context.
type limitsKey struct{}

// WithLimits returns a context carrying statement limits that override the
// engine-wide defaults for statements executed under it.
func WithLimits(ctx context.Context, l Limits) context.Context {
	return context.WithValue(ctx, limitsKey{}, l)
}

// EffectiveLimits resolves the limits of the statement ctx belongs to: the
// context's own (WithLimits) first, the engine-wide ones otherwise. It is the
// one place a statement's limits are decided: every statement resolves them
// here, a generated one under the context of the statement that generated
// it, and the core planner reads MaxPivotColumns through it at plan time.
func (e *Engine) EffectiveLimits(ctx context.Context) Limits {
	if l, ok := ctx.Value(limitsKey{}).(Limits); ok {
		return l
	}
	return e.Limits()
}

// Contain runs fn under the two guards every unit of plan work gets — a
// statement here (runStatement), a summary-cache lookup's build or refresh in
// the core package: the
// effective Limits' per-statement deadline applied to ctx, and panic
// containment into a typed PCT206 error naming point, so one poisoned
// statement cannot kill concurrent submitters. fn receives the deadline
// context and the limits it was derived from. The spans under sp that the
// unwind skipped past are closed, so the trace stays well-formed.
func (e *Engine) Contain(ctx context.Context, point string, sp *obs.Span, fn func(context.Context, Limits) error) (err error) {
	lim := e.EffectiveLimits(ctx)
	if lim.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, lim.Timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			err = NewPanicError(point, r)
			sp.EndAll("panic-unwind")
		}
	}()
	return fn(ctx, lim)
}

// CheckCtx returns the typed CancelledError when ctx is already cancelled or
// past its deadline, nil otherwise. Exported for the core package's summary
// cache, which stride-checks its delta snapshot with it so a cancelled plan
// carries the same PCT200/PCT201 codes as a cancelled statement.
func CheckCtx(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return &CancelledError{cause: err}
	}
	return nil
}

// ----- typed lifecycle errors -----

// CancelledError reports a statement stopped by its context: user
// cancellation (PCT200) or deadline expiry (PCT201). It wraps the context's
// error, so errors.Is(err, context.Canceled) keeps working.
type CancelledError struct {
	cause error
}

// Error renders the failure with its code.
func (e *CancelledError) Error() string {
	if errors.Is(e.cause, context.DeadlineExceeded) {
		return "engine: statement deadline exceeded"
	}
	return "engine: statement cancelled"
}

// Code returns PCT200 for cancellation, PCT201 for a deadline.
func (e *CancelledError) Code() string {
	if errors.Is(e.cause, context.DeadlineExceeded) {
		return diag.CodeDeadline
	}
	return diag.CodeCancelled
}

// Unwrap exposes the underlying context error.
func (e *CancelledError) Unwrap() error { return e.cause }

// LimitError reports a resource budget exceeded mid-statement.
type LimitError struct {
	// PCTCode is the limit's diagnostic code (PCT202..PCT205).
	PCTCode string
	// Resource names what overflowed ("rows", "groups", "pivot columns",
	// "bytes").
	Resource string
	// Limit is the configured bound.
	Limit int64
}

// Error renders the failure.
func (e *LimitError) Error() string {
	return fmt.Sprintf("engine: statement exceeded the %s limit (%d)", e.Resource, e.Limit)
}

// Code returns the PCT2xx diagnostic code.
func (e *LimitError) Code() string { return e.PCTCode }

// PanicError is a panic recovered inside statement execution — a worker
// goroutine, a summary-cache lookup, or the dispatch itself — contained into an
// error so one poisoned statement cannot kill concurrent submitters.
type PanicError struct {
	// Point says where the panic was recovered ("statement dispatch",
	// "partition worker 2/4", "cache lookup").
	Point string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error renders the failure without the stack (attach via %+v or Stack).
func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: panic in %s: %v", e.Point, e.Value)
}

// Code returns PCT206.
func (e *PanicError) Code() string { return diag.CodePanic }

// NewPanicError builds the contained form of a recovered panic value,
// capturing the current stack and counting it in engine.panics. Exported for
// the server's connection handlers, which recover on their own goroutines.
// Construction is the single counting site, so every containment path —
// Contain (dispatch, cache lookup), partition worker, connection — bumps the
// metric exactly once.
func NewPanicError(point string, v any) *PanicError {
	mPanics.Inc()
	return &PanicError{Point: point, Value: v, Stack: debug.Stack()}
}

// ----- the governor -----

// govStride is how many rows a governed loop processes between governor
// checks. It bounds both the hot-path overhead (one atomic add and one
// ctx.Err read per stride) and the rows processed after cancellation
// (at most one stride per concurrent worker, asserted in
// TestCancelBoundedRows).
const govStride = 1024

// batchSize is how many tuples the batch pipeline moves at a time (columns.go):
// one batch is one governor stride.
const batchSize = govStride

// govCounters is the per-statement progress state shared by every governor
// derived for the statement (parallel workers share one budget).
type govCounters struct {
	scanned int64 // atomic: rows pulled out of base-table scans
	rows    int64 // atomic: rows materialized
	bytes   int64 // atomic: approximate bytes materialized
	groups  int64 // atomic: aggregation groups allocated
}

// governor carries one statement's context and budgets through execution.
// All methods are safe on a nil receiver (ungoverned execution, used by
// unit tests that drive operators directly), where every check passes.
type governor struct {
	ctx context.Context
	lim Limits
	c   *govCounters
}

// newGovernor starts governance for one statement.
func newGovernor(ctx context.Context, lim Limits) *governor {
	return &governor{ctx: ctx, lim: lim, c: &govCounters{}}
}

// withCtx derives a governor under a different context (the per-fan-out
// cancel context) that shares the statement's counters and limits.
func (g *governor) withCtx(ctx context.Context) *governor {
	if g == nil || ctx == g.ctx {
		return g
	}
	return &governor{ctx: ctx, lim: g.lim, c: g.c}
}

// uncharged derives a governor that checks the statement's context and
// charges none of its budgets.
func (g *governor) uncharged() *governor {
	if g == nil {
		return nil
	}
	return &governor{ctx: g.ctx, c: &govCounters{}}
}

// check returns the typed cancellation error if the statement's context is
// done.
func (g *governor) check() error {
	if g == nil || g.ctx == nil {
		return nil
	}
	if err := g.ctx.Err(); err != nil {
		return &CancelledError{cause: err}
	}
	return nil
}

// addScanned counts base-table rows scanned (not limited; the counter is
// what makes cancellation latency observable and testable) and checks the
// context.
func (g *governor) addScanned(n int64) error {
	if g == nil {
		return nil
	}
	atomic.AddInt64(&g.c.scanned, n)
	return g.check()
}

// addRows counts materialized rows against MaxRows and checks the context.
func (g *governor) addRows(n int64) error {
	if g == nil {
		return nil
	}
	total := atomic.AddInt64(&g.c.rows, n)
	if g.lim.MaxRows > 0 && total > g.lim.MaxRows {
		return &LimitError{PCTCode: diag.CodeRowLimit, Resource: "materialized-row", Limit: g.lim.MaxRows}
	}
	return g.check()
}

// addBytes counts approximate materialized bytes against MaxBytes.
func (g *governor) addBytes(n int64) error {
	if g == nil {
		return nil
	}
	total := atomic.AddInt64(&g.c.bytes, n)
	if g.lim.MaxBytes > 0 && total > g.lim.MaxBytes {
		return &LimitError{PCTCode: diag.CodeByteBudget, Resource: "byte-budget", Limit: g.lim.MaxBytes}
	}
	return nil
}

// addGroups counts aggregation groups against MaxGroups.
func (g *governor) addGroups(n int64) error {
	if g == nil {
		return nil
	}
	total := atomic.AddInt64(&g.c.groups, n)
	if g.lim.MaxGroups > 0 && total > g.lim.MaxGroups {
		return &LimitError{PCTCode: diag.CodeGroupLimit, Resource: "group", Limit: g.lim.MaxGroups}
	}
	return g.check()
}

// scanned reports the statement's scanned-row counter. The
// cancellation-latency test and benchmark read it to bound how many rows a
// cancelled statement kept processing.
func (g *governor) scanned() int64 {
	if g == nil {
		return 0
	}
	return atomic.LoadInt64(&g.c.scanned)
}
