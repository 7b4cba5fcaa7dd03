package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/value"
)

// Engine executes SQL statements against a catalog.
type Engine struct {
	cat *storage.Catalog
	// par is the default parallelism for ExecSQL/ExecSQLCtx: 0 = one worker
	// per CPU (gated by an input-size threshold), 1 = sequential, n > 1 =
	// exactly n workers. Atomic because concurrent submitters share one
	// engine (see TestConcurrentPercentageQueries).
	par atomic.Int32
	// slow is the slow-query log; atomic so concurrent submitters can race
	// reconfiguration safely (see trace.go).
	slow atomic.Pointer[slowLog]
	// limits is the engine-wide default resource budget applied to every
	// statement that does not carry its own via WithLimits (see
	// lifecycle.go). Atomic for the same reason as par.
	limits atomic.Pointer[Limits]
	// dml is the installed DMLHook (nil = none). Atomic so installing or
	// removing the hook races safely with statements in flight; the hook
	// itself is invoked synchronously on the writer's goroutine.
	dml atomic.Pointer[dmlHookBox]
	// rw is the installed Rewriter (nil = none), atomic like dml.
	rw atomic.Pointer[Rewriter]
	// intro is the introspection state (nil = off); see introspect.go.
	// Atomic so enabling/disabling races safely with statements in flight.
	intro atomic.Pointer[introState]
	// ref, when set, is the reference engine every SELECT then runs its
	// input on instead of the batch pipeline. Only the package's tests set it
	// (export_test.go): the reference lives in their files.
	ref atomic.Pointer[reference]
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
	// mutation) moves preEpoch past what the consumer covered and must force
	// a rebuild instead of a merge.
	OnInsert(table string, from, to int, preEpoch, postEpoch int64)
	// OnMutate reports a committed mutation that is not a pure append. m
	// describes a bounded in-place UPDATE row by row, so derived state can
	// take the change as −old / +new; it is nil for everything else — an
	// UPDATE of more than MutationBound rows, the joined UPDATE … FROM, DELETE,
	// DROP — and derived state over the table must then rebuild.
	OnMutate(table string, m *Mutation)
}

// MutationBound is how many affected rows an UPDATE may report image by
// image (Mutation). Past it the images would cost more than the rebuild they
// save, and the hook gets nil.
const MutationBound = 64

// Mutation is a committed in-place UPDATE of at most MutationBound rows: the
// assigned columns, the affected row ids in ascending order with each row's
// full image before and after, and the table's epochs bracketing the
// statement (see DMLHook.OnInsert for what the pre-epoch proves).
type Mutation struct {
	Cols                []int
	Rows                []int
	Old, New            [][]value.Value
	PreEpoch, PostEpoch int64
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
func (e *Engine) notifyMutate(table string, m *Mutation) {
	if b := e.dml.Load(); b != nil {
		b.h.OnMutate(table, m)
	}
}

// Rewriter evaluates the SELECTs the engine has no operator for — those
// rewriteError rejects: a Vpct or Hpct call, an aggregate with a BY list,
// GROUP BY ROLLUP/CUBE/GROUPING SETS — as statements the engine can run. It is
// called inside the lifecycle of the statement that carries the SELECT: ctx
// holds that statement's deadline, cancellation and limits, and every
// statement the rewriter runs under ctx is nested in it (see nestedIn). par is
// the statement's parallelism, and parent the span the rewriter's trace hangs
// under, nil when the statement is not traced.
type Rewriter interface {
	// Select evaluates sel and reports how many summaries the evaluation
	// reused (hits) and had to compute (misses).
	Select(ctx context.Context, sel *sqlparse.Select, par int, parent *obs.Span) (res *Result, hits, misses int, err error)
	// Explain renders EXPLAIN [ANALYZE] of such a SELECT as a one-column
	// "plan" result, a line a row.
	Explain(ctx context.Context, ex *sqlparse.Explain, par int, parent *obs.Span) (*Result, error)
}

// SetRewriter installs the engine's rewriter; the last call wins. Without
// one, the SELECTs it would evaluate fail with rewriteError's errors.
func (e *Engine) SetRewriter(r Rewriter) { e.rw.Store(&r) }

// New returns an engine over the catalog. The default parallelism is 1
// (sequential); callers opt in via SetParallelism or the per-statement
// parallelism of ExecuteCtxIn/ExecSQLCtxP.
func New(cat *storage.Catalog) *Engine {
	e := &Engine{cat: cat}
	e.par.Store(1)
	return e
}

// SetParallelism sets the default parallelism used by ExecSQL and ExecSQLCtx:
// 0 = one worker per CPU, 1 = sequential, n > 1 = exactly n workers.
func (e *Engine) SetParallelism(p int) { e.par.Store(int32(p)) }

// Parallelism returns the engine's default parallelism.
func (e *Engine) Parallelism() int { return int(e.par.Load()) }

// reference is the row-at-a-time engine the batch pipeline is proven
// against: the plan's nodes pulled one boxed row at a time, the sequential
// fold, every CASE arm evaluated on every row — the paper's engine. It is
// the test oracle (oracle_test.go); production code only calls through it.
type reference interface {
	// fold is hashAggregate on the reference.
	fold(in planNode, keys []expr.Expr, specs []aggSpec, ec execCtx, out rowSink) (int, error)
	// project pushes every row of in through proj and returns the count.
	project(in planNode, proj *projector, ec execCtx) (int, error)
	// window collects in, folds it by each partition list of parts, and
	// pushes every input row, extended with its partitions' results, through
	// proj.
	window(in planNode, parts []*windowPart, ec execCtx, proj *projector) error
}

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *storage.Catalog { return e.cat }

// Result is the outcome of a statement: rows and column names for SELECT,
// the affected-row count for DML.
type Result struct {
	Columns  []string
	Rows     [][]value.Value
	Affected int
}

// ExecuteCtxIn runs one parsed statement: the one way a statement enters the
// engine. Cancelling ctx stops it cooperatively with a typed CancelledError,
// and any Limits carried by ctx (WithLimits) or installed engine-wide
// (SetLimits) are enforced. parallelism overrides the engine default for this
// statement only (0 = one worker per CPU, 1 = sequential, n > 1 = n workers);
// only aggregation consumes it. The statement's span tree attaches under
// parent, so multi-statement plans (the core package's generated SQL) nest
// their statements inside one plan trace; a nil parent disables tracing for
// the statement — metrics, the slow-query log and introspection still apply.
func (e *Engine) ExecuteCtxIn(ctx context.Context, stmt sqlparse.Statement, parallelism int, parent *obs.Span) (*Result, error) {
	return e.runStatement(ctx, stmt, execCtx{par: parallelism, span: parent.NewChild("statement")})
}

// runStatement is the statement lifecycle, begin → govern → exec → complete,
// and the only place a statement begins and ends. Begin reads the one clock,
// snapshots the reference hook and opens the introspection record; Contain
// applies the effective limits' deadline and contains panics; the governor
// the long loops check is built under it; complete feeds every consumer of
// the finished statement. Everything downstream derives its context from ec
// — an inner context is a copy of ec with fields changed, never a literal —
// so a governor, record or reference cannot be dropped on the way. A SELECT
// the rewriter evaluates stays this statement: its generated statements run
// nested inside it, under its deadline.
func (e *Engine) runStatement(ctx context.Context, stmt sqlparse.Statement, ec execCtx) (res *Result, err error) {
	ec.start = time.Now()
	if r := e.ref.Load(); r != nil {
		ec.ref = *r
	}
	// The statement text is rendered at most once, and only for a consumer
	// that is on: a live span, the introspection record, a slow statement.
	var sql string
	if ec.span != nil {
		sql = stmt.String()
		ec.span.Attr("sql", sql)
	}
	if ec.rec = e.beginIntro(ctx, stmt, &sql); ec.rec != nil && ec.span == nil {
		// Untraced: a private span tree still gives the flight record its
		// per-stage breakdown.
		ec.span, ec.rec.ownSpan = obs.NewSpan("statement"), true
	}
	err = e.Contain(ctx, "statement dispatch", ec.span, func(ctx context.Context, lim Limits) error {
		if ctx.Done() != nil || !lim.zero() || ec.rec != nil {
			ec.gov = newGovernor(ctx, lim)
		}
		ec.rec.publish(ec)
		// A context that died before we started still gets the typed error.
		err := ec.gov.check()
		if err == nil {
			res, err = e.exec(ctx, stmt, ec)
		}
		return err
	})
	e.complete(stmt, sql, ec, res, err)
	return res, err
}

// Unparsed ends the statement a caller sent as src, which failed to parse
// with err: it never runs, but completes like any statement that fails —
// counted, logged when slow, and recorded top = 1.
func (e *Engine) Unparsed(ctx context.Context, src string, err error) {
	e.complete(nil, src, execCtx{start: time.Now(), rec: e.beginIntro(ctx, nil, &src)}, nil, err)
}

// exec dispatches one statement under an execution context. ctx is the
// statement's governed context, which only a rewriter needs.
func (e *Engine) exec(ctx context.Context, stmt sqlparse.Statement, ec execCtx) (*Result, error) {
	switch s := stmt.(type) {
	case *sqlparse.Select:
		if rw := e.rw.Load(); rw != nil && rewriteError(s) != nil {
			// The rewriter evaluates s as this statement; its summary-cache
			// counts go on the statement's record.
			res, hits, misses, err := (*rw).Select(nestedIn(ctx, ec.rec != nil), s, ec.par, ec.fullSpan())
			if ec.rec != nil {
				ec.rec.cacheHits, ec.rec.cacheMisses = hits, misses
			}
			return res, err
		}
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
		return e.execExplain(ctx, s, ec)
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

// ExecSQL parses and runs a script (one or more statements separated by
// semicolons) with the engine's default parallelism and returns the last
// statement's result.
func (e *Engine) ExecSQL(src string) (*Result, error) {
	return e.ExecSQLCtxIn(context.Background(), src, e.Parallelism(), nil)
}

// ExecSQLCtx is ExecSQL under a context (see ExecuteCtxIn).
func (e *Engine) ExecSQLCtx(ctx context.Context, src string) (*Result, error) {
	return e.ExecSQLCtxIn(ctx, src, e.Parallelism(), nil)
}

// ExecSQLCtxP is ExecSQLCtx with an explicit per-script parallelism override.
func (e *Engine) ExecSQLCtxP(ctx context.Context, src string, parallelism int) (*Result, error) {
	return e.ExecSQLCtxIn(ctx, src, parallelism, nil)
}

// ExecSQLCtxIn parses and runs a script with every statement traced as a
// child of parent: a "parse" span covers lexing and parsing, then one
// statement span per statement (see ExecuteCtxIn). It returns the last
// statement's result.
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
