package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/value"
)

// Engine executes SQL statements against a catalog.
type Engine struct {
	cat *storage.Catalog
	// par is the default parallelism for Execute/ExecSQL: 0 = one worker
	// per CPU (gated by an input-size threshold), 1 = sequential, n > 1 =
	// exactly n workers. Atomic because concurrent submitters share one
	// engine (see TestConcurrentPercentageQueries).
	par atomic.Int32
	// sink receives the finished span tree of every statement; slow is the
	// slow-query log. Both are atomic so concurrent submitters can race
	// reconfiguration safely (see trace.go).
	sink atomic.Pointer[traceSink]
	slow atomic.Pointer[slowLog]
	// limits is the engine-wide default resource budget applied to every
	// statement that does not carry its own via WithLimits (see
	// lifecycle.go). Atomic for the same reason as par.
	limits atomic.Pointer[Limits]
	// dml is the installed DMLHook (nil = none). Atomic so installing or
	// removing the hook races safely with statements in flight; the hook
	// itself is invoked synchronously on the writer's goroutine.
	dml atomic.Pointer[dmlHookBox]
	// intro is the introspection state (nil = off); see introspect.go.
	// Atomic so enabling/disabling races safely with statements in flight.
	intro atomic.Pointer[introState]
	// batchOff sends every fold to the sequential reference instead of the
	// fold operator (fold.go). Stored inverted so the zero value is "on"; atomic for the same
	// concurrent-submitter reason as par.
	batchOff atomic.Bool
	// virt maps lowercased names to registered read-only virtual relations
	// (the pct_stat_* catalog). Guarded by virtMu; registration is rare and
	// the per-statement lookup is a short read-locked map probe.
	virtMu sync.RWMutex
	virt   map[string]*virtualDef
}

// DMLHook observes committed data mutations, the raw signal a derived-state
// cache (the planner's summary cache) needs to invalidate or incrementally
// maintain itself. Hooks fire after the statement commits — a rolled-back
// statement is invisible — and on the statement's own goroutine, so an
// implementation must be cheap and must not call back into the engine's
// write path.
type DMLHook interface {
	// OnInsert reports a committed append of rows [from, to) to table: the
	// appended range is the statement's delta, addressable by row id until
	// the next mutation. preEpoch is the table's modification epoch before
	// the first appended row and postEpoch the epoch after commit, so an
	// incremental consumer can prove the delta extends exactly the state it
	// last observed — any unhooked write in between (a direct storage
	// mutation, an in-place update) moves preEpoch past what the consumer
	// covered and must force a rebuild instead of a merge.
	OnInsert(table string, from, to int, preEpoch, postEpoch int64)
	// OnMutate reports a committed mutation that is not a pure append:
	// op is "update", "delete", or "drop". No delta is available; derived
	// state over the table must rebuild.
	OnMutate(table string, op string)
}

// dmlHookBox wraps the interface so a nil hook can be stored atomically.
type dmlHookBox struct{ h DMLHook }

// SetDMLHook installs (or, with nil, removes) the engine's DML hook.
// At most one hook is active at a time; the last call wins.
func (e *Engine) SetDMLHook(h DMLHook) {
	if h == nil {
		e.dml.Store(nil)
		return
	}
	e.dml.Store(&dmlHookBox{h: h})
}

// notifyInsert fires the hook for a committed append of rows [from, to).
// Empty appends are suppressed: they change nothing a cache could observe.
func (e *Engine) notifyInsert(table string, from, to int, preEpoch, postEpoch int64) {
	if b := e.dml.Load(); b != nil && to > from {
		b.h.OnInsert(table, from, to, preEpoch, postEpoch)
	}
}

// notifyMutate fires the hook for a committed non-append mutation.
func (e *Engine) notifyMutate(table, op string) {
	if b := e.dml.Load(); b != nil {
		b.h.OnMutate(table, op)
	}
}

// New returns an engine over the catalog. The default parallelism is 1
// (sequential); callers opt in via SetParallelism or the per-statement
// ExecuteP/ExecSQLP entry points.
func New(cat *storage.Catalog) *Engine {
	e := &Engine{cat: cat}
	e.par.Store(1)
	return e
}

// SetParallelism sets the default parallelism used by Execute and ExecSQL:
// 0 = one worker per CPU, 1 = sequential, n > 1 = exactly n workers.
func (e *Engine) SetParallelism(p int) { e.par.Store(int32(p)) }

// Parallelism returns the engine's default parallelism.
func (e *Engine) Parallelism() int { return int(e.par.Load()) }

// SetBatch toggles the fold operator (on by default). Off sends every
// GROUP BY to the row-at-a-time sequential reference fold, on one worker
// whatever the parallelism — the reference the differential suite and
// pctbench compare against.
func (e *Engine) SetBatch(on bool) { e.batchOff.Store(!on) }

// BatchEnabled reports whether the fold operator is enabled.
func (e *Engine) BatchEnabled() bool { return !e.batchOff.Load() }

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *storage.Catalog { return e.cat }

// Result is the outcome of a statement: rows and column names for SELECT,
// the affected-row count for DML.
type Result struct {
	Columns  []string
	Rows     [][]value.Value
	Affected int
}

// Execute runs one parsed statement with the engine's default parallelism.
func (e *Engine) Execute(stmt sqlparse.Statement) (*Result, error) {
	return e.ExecuteP(stmt, e.Parallelism())
}

// ExecuteCtx is Execute under a context: cancelling ctx stops the statement
// cooperatively with a typed CancelledError, and any Limits carried by ctx
// (WithLimits) or installed engine-wide (SetLimits) are enforced.
func (e *Engine) ExecuteCtx(ctx context.Context, stmt sqlparse.Statement) (*Result, error) {
	return e.ExecuteCtxP(ctx, stmt, e.Parallelism())
}

// ExecuteP runs one parsed statement with an explicit parallelism that
// overrides the engine default for this statement only (0 = one worker per
// CPU, 1 = sequential, n > 1 = n workers). Only aggregation consumes the
// setting; other operators run as before.
func (e *Engine) ExecuteP(stmt sqlparse.Statement, parallelism int) (*Result, error) {
	return e.ExecuteCtxP(context.Background(), stmt, parallelism)
}

// ExecuteCtxP is ExecuteP under a context (see ExecuteCtx).
func (e *Engine) ExecuteCtxP(ctx context.Context, stmt sqlparse.Statement, parallelism int) (*Result, error) {
	var root *obs.Span
	if e.tracing() {
		root = obs.NewSpan("statement")
		root.Attr("sql", stmt.String())
	}
	t0 := time.Now()
	res, err := e.runStatement(ctx, stmt, execCtx{par: parallelism, span: root})
	e.finishStatement(stmt, root, time.Since(t0), err)
	if s := e.sink.Load(); s != nil && root != nil {
		s.fn(root)
	}
	return res, err
}

// runStatement executes one statement under full lifecycle governance: it
// resolves the effective limits, applies the per-statement deadline, builds
// the governor the long loops check, contains panics from the dispatch
// itself, and classifies the outcome in metrics. ec.span/ec.par come from
// the caller; ec.gov is installed here.
func (e *Engine) runStatement(ctx context.Context, stmt sqlparse.Statement, ec execCtx) (res *Result, err error) {
	ec.batch = !e.batchOff.Load()
	lim := e.effectiveLimits(ctx)
	if lim.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, lim.Timeout)
		defer cancel()
	}
	// Introspection opens a statement record before the governor is built so
	// the record can observe the governor's live counters. A nil rec means
	// recording is off or the statement reads a virtual relation (the
	// self-observation guard in beginIntro).
	var rec *stmtRec
	if in := e.intro.Load(); in != nil && !introSkipped(ctx) {
		rec = e.beginIntro(in, stmt)
	}
	if ctx.Done() != nil || !lim.zero() || rec != nil {
		ec.gov = newGovernor(ctx, lim)
	}
	if rec != nil {
		rec.attach(ec.gov)
		if ec.span == nil {
			// No sink: build a private span tree so flight records still get
			// their per-stage breakdown.
			ec.span = obs.NewSpan("statement")
			rec.ownSpan = true
		}
		ec.rec = rec
		// Registered before the recovery defer below, so it runs after it
		// (LIFO) and records the post-recovery result and error.
		defer func() { rec.finish(ec.span, res, err) }()
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, NewPanicError("statement dispatch", r)
			// Unwinding skipped the orderly End calls between the panic site
			// and here; close what it left open so the trace stays well-formed.
			ec.span.EndAll("panic-unwind")
		}
		classifyOutcome(err)
	}()
	// A context that died before we started still gets the typed error.
	if err := ec.gov.check(); err != nil {
		return nil, err
	}
	return e.exec(stmt, ec)
}

// classifyOutcome bumps the lifecycle metrics for a finished statement.
// Panics are counted at recovery (the panic may have been contained in a
// worker, not here).
func classifyOutcome(err error) {
	if err == nil {
		return
	}
	var c *CancelledError
	if errors.As(err, &c) {
		mCancelled.Inc()
		return
	}
	var l *LimitError
	if errors.As(err, &l) {
		mLimitsExceeded.Inc()
	}
}

// ExecuteCtxIn is ExecuteCtxP with the statement run as a child stage of
// parent: its span tree attaches under parent instead of going to the trace
// sink, so multi-statement plans (the core package's generated SQL) nest
// their statements inside one plan trace. A nil parent disables tracing for
// the statement; metrics and the slow-query log still apply.
func (e *Engine) ExecuteCtxIn(ctx context.Context, stmt sqlparse.Statement, parallelism int, parent *obs.Span) (*Result, error) {
	sp := parent.NewChild("statement")
	sp.Attr("sql", stmt.String())
	t0 := time.Now()
	res, err := e.runStatement(ctx, stmt, execCtx{par: parallelism, span: sp})
	d := time.Since(t0)
	if res != nil {
		sp.SetRows(-1, int64(max(len(res.Rows), res.Affected)))
	}
	e.finishStatement(stmt, sp, d, err)
	return res, err
}

// exec dispatches one statement under an execution context.
func (e *Engine) exec(stmt sqlparse.Statement, ec execCtx) (*Result, error) {
	switch s := stmt.(type) {
	case *sqlparse.Select:
		return e.execSelect(s, ec)
	case *sqlparse.Insert:
		return e.execInsert(s, ec)
	case *sqlparse.Update:
		return e.execUpdate(s, ec)
	case *sqlparse.CreateTable:
		return e.execCreateTable(s)
	case *sqlparse.CreateIndex:
		return e.execCreateIndex(s)
	case *sqlparse.DropTable:
		return e.execDropTable(s)
	case *sqlparse.Delete:
		return e.execDelete(s, ec)
	case *sqlparse.Explain:
		return e.execExplain(s, ec)
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

// ExecSQL parses and runs a script (one or more statements separated by
// semicolons) with the engine's default parallelism and returns the last
// statement's result.
func (e *Engine) ExecSQL(src string) (*Result, error) {
	return e.ExecSQLP(src, e.Parallelism())
}

// ExecSQLCtx is ExecSQL under a context (see ExecuteCtx).
func (e *Engine) ExecSQLCtx(ctx context.Context, src string) (*Result, error) {
	return e.ExecSQLCtxP(ctx, src, e.Parallelism())
}

// ExecSQLP is ExecSQL with an explicit per-script parallelism override.
func (e *Engine) ExecSQLP(src string, parallelism int) (*Result, error) {
	return e.ExecSQLCtxP(context.Background(), src, parallelism)
}

// ExecSQLCtxP is ExecSQLP under a context (see ExecuteCtx).
func (e *Engine) ExecSQLCtxP(ctx context.Context, src string, parallelism int) (*Result, error) {
	stmts, err := sqlparse.ParseAll(src)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, s := range stmts {
		last, err = e.ExecuteCtxP(ctx, s, parallelism)
		if err != nil {
			return nil, fmt.Errorf("%w\n  in: %s", err, s)
		}
	}
	return last, nil
}

// ExecSQLCtxIn parses and runs a script with every statement traced as a
// child of parent: a "parse" span covers lexing and parsing, then one
// statement span per statement (see ExecuteCtxIn). It returns the last
// statement's result, like ExecSQLCtxP.
func (e *Engine) ExecSQLCtxIn(ctx context.Context, src string, parallelism int, parent *obs.Span) (*Result, error) {
	ps := parent.NewChild("parse")
	stmts, err := sqlparse.ParseAll(src)
	ps.SetRows(-1, int64(len(stmts)))
	ps.End()
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, s := range stmts {
		last, err = e.ExecuteCtxIn(ctx, s, parallelism, parent)
		if err != nil {
			return nil, fmt.Errorf("%w\n  in: %s", err, s)
		}
	}
	return last, nil
}

// Format renders the result as an aligned text table for CLI output.
func (r *Result) Format() string {
	if len(r.Columns) == 0 {
		return fmt.Sprintf("(%d rows affected)\n", r.Affected)
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	// pctvet:ok pure formatting of a result the statement already governed; no governor in scope
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(vals []string) {
		for i, s := range vals {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(s)
			for p := len(s); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(r.Columns)
	sep := make([]string, len(r.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range cells {
		writeRow(row)
	}
	sb.WriteString(fmt.Sprintf("(%d rows)\n", len(r.Rows)))
	return sb.String()
}
