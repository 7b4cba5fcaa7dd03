package engine

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/obs"
)

// Observability plumbing for statement execution. An execCtx carries the
// per-statement parallelism together with the statement's trace span; when no
// trace sink or slow-query log is configured the span is nil and every
// instrumentation point degrades to a single pointer test (obs.Span methods
// are nil-receiver safe, and iterator opStats are only allocated for traced
// statements), so the sequential hot loop records metrics with atomic adds
// and zero allocations.

// execCtx threads per-statement execution state through the engine: the
// parallelism setting (see fold.go for its semantics) and the statement
// span child stages attach to (nil when tracing is off).
type execCtx struct {
	par  int
	span *obs.Span
	// gov is the statement's lifecycle governor (lifecycle.go): context,
	// resource budgets, shared progress counters. Nil for ungoverned
	// statements (background context, no limits); every governed loop
	// tolerates nil.
	gov *governor
	// inspect, when non-nil, asks execSelect to expose its pipeline for
	// EXPLAIN ANALYZE rendering.
	inspect *selInspect
	// rec is the statement's introspection record (nil when introspection is
	// off or the statement is excluded by the self-observation guard); the
	// fold marks it when it fans out (see fold.go).
	rec *stmtRec
	// batch selects the fold operator over the sequential reference
	// (fold.go); snapshotted from Engine.batchOff by runStatement so one
	// statement never mixes paths.
	batch bool
}

// liteSpan reports whether the statement span exists only so the flight
// recorder gets its stage totals (introspection on, but no trace sink and no
// EXPLAIN ANALYZE). Per-operator instrumentation is skipped for such spans:
// opStats cost two clock reads per row per operator, the wrong price for
// always-on recording. Flight-record stages then carry the phase-level
// breakdown (aggregate, fold, sort, project, …), which costs one timestamp
// per phase.
func (ec execCtx) liteSpan() bool { return ec.rec != nil && ec.rec.ownSpan }

// selInspect captures the executed SELECT pipeline so EXPLAIN ANALYZE can
// render the plan tree with actual row counts and timings after the run.
type selInspect struct {
	in       iterator // FROM pipeline root, residual filter included
	rows     int      // final result row count
	analyzed bool     // set once execSelect ran to completion
}

// Engine-level metrics, registered once on the process-wide registry.
// Handles are package variables so recording is a single atomic add.
var (
	mStatements     = obs.Default.Counter("engine.statements")
	mStatementNs    = obs.Default.Histogram("engine.statement.ns")
	mErrors         = obs.Default.Counter("engine.errors")
	mRowsScanned    = obs.Default.Counter("engine.rows.scanned")
	mGroupsEmitted  = obs.Default.Counter("engine.groups.emitted")
	mAggParallel    = obs.Default.Counter("engine.agg.parallel")
	mAggSeqFallback = obs.Default.Counter("engine.agg.seq_fallback")
	mJoinBuilds     = obs.Default.Counter("engine.join.builds")
	mJoinIndexReuse = obs.Default.Counter("engine.join.index_reuse")
	// Lifecycle metrics (lifecycle.go): statements stopped by their context,
	// statements over a resource limit, panics contained into errors, and
	// parallel aggregations degraded to sequential under byte-budget
	// pressure.
	mCancelled         = obs.Default.Counter("engine.cancelled")
	mLimitsExceeded    = obs.Default.Counter("engine.limits.exceeded")
	mPanics            = obs.Default.Counter("engine.panics")
	mAggBudgetFallback = obs.Default.Counter("engine.agg.budget_fallback")
)

// slowLog is the slow-query log configuration: statements slower than the
// threshold are written to w, one line each. The mutex serializes writers
// when concurrent statements are slow at once.
type slowLog struct {
	mu        sync.Mutex
	w         io.Writer
	threshold time.Duration
}

func (l *slowLog) record(d time.Duration, sql string) {
	if l == nil || d < l.threshold {
		return
	}
	l.mu.Lock()
	fmt.Fprintf(l.w, "slow query (%s): %s\n", d, sql)
	l.mu.Unlock()
}

// traceSink wraps the sink callback so it can live in an atomic.Pointer.
type traceSink struct {
	fn func(*obs.Span)
}

// SetTraceSink installs a callback that receives the finished span tree of
// every statement the engine executes. Pass nil to disable tracing. The
// callback may run from any goroutine that submits statements.
func (e *Engine) SetTraceSink(fn func(*obs.Span)) {
	if fn == nil {
		e.sink.Store(nil)
		return
	}
	e.sink.Store(&traceSink{fn: fn})
}

// SetSlowQueryLog logs statements slower than threshold to w, one line per
// statement ("slow query (<dur>): <sql>"). Pass a nil writer to disable.
func (e *Engine) SetSlowQueryLog(w io.Writer, threshold time.Duration) {
	if w == nil {
		e.slow.Store(nil)
		return
	}
	e.slow.Store(&slowLog{w: w, threshold: threshold})
}

// tracing reports whether statements should build span trees even without an
// explicit parent: a sink wants the tree, and the slow-query log includes it
// implicitly through the statement duration.
func (e *Engine) tracing() bool { return e.sink.Load() != nil }

// opStats is per-operator instrumentation for EXPLAIN ANALYZE and traces:
// cumulative time spent inside next() (inclusive of children, the way
// EXPLAIN ANALYZE actual times read everywhere) and rows produced. Allocated
// only for traced statements; a nil *opStats keeps next() on the fast path.
type opStats struct {
	ns   int64
	rows int64
}

// instrumentIter allocates opStats down an iterator tree so every operator
// records its actual rows and cumulative time.
func instrumentIter(it iterator) {
	switch n := it.(type) {
	case *tableScan:
		n.stats = &opStats{}
	case *filterIter:
		n.stats = &opStats{}
		instrumentIter(n.child)
	case *hashJoin:
		n.stats = &opStats{}
		instrumentIter(n.left)
	case *nestedLoopJoin:
		n.stats = &opStats{}
		instrumentIter(n.left)
		instrumentIter(n.rightSrc)
	case *memRelation:
		n.stats = &opStats{}
	}
}

// operatorSpans converts an instrumented iterator tree into a span subtree
// mirroring the physical plan, with durations taken from the accumulated
// per-operator stats. Because actual times are inclusive of children, each
// child's duration is bounded by its parent's, preserving the trace
// invariant that sequential children never out-sum their parent.
func operatorSpans(it iterator) *obs.Span {
	var sp *obs.Span
	switch n := it.(type) {
	case *tableScan:
		sp = obs.NewSpan("scan " + n.tab.Name())
		applyStats(sp, n.stats)
	case *filterIter:
		sp = obs.NewSpan("filter")
		applyStats(sp, n.stats)
		sp.AddChild(operatorSpans(n.child))
	case *hashJoin:
		name := "hash join probe"
		if n.outer {
			name = "hash left outer join probe"
		}
		sp = obs.NewSpan(name)
		applyStats(sp, n.stats)
		if b := n.build; b != nil && b.built {
			bs := obs.NewSpan("join build")
			// Floor to 1ns: index reuse and failed builds have buildNs==0,
			// and Duration==0 is the trace invariant for "unclosed".
			d := time.Duration(b.buildNs)
			if d <= 0 {
				d = 1
			}
			bs.SetDuration(d)
			bs.SetRows(b.buildRows, -1)
			if b.useIndex {
				bs.Attr("via", "existing index")
			} else {
				bs.Attr("via", "hash table")
			}
			sp.AddChild(bs)
		}
		sp.AddChild(operatorSpans(n.left))
	case *nestedLoopJoin:
		sp = obs.NewSpan("nested-loop join")
		applyStats(sp, n.stats)
		if n.right != nil {
			ms := obs.NewSpan("materialize right")
			ms.SetDuration(time.Duration(n.matNs))
			ms.SetRows(-1, int64(len(n.right.rows)))
			sp.AddChild(ms)
		}
		sp.AddChild(operatorSpans(n.left))
	case *memRelation:
		if n.stats == nil {
			return nil // a hand-over between stages, not an operator of the plan
		}
		sp = obs.NewSpan("values")
		applyStats(sp, n.stats)
	default:
		sp = obs.NewSpan(fmt.Sprintf("%T", it))
	}
	return sp
}

func applyStats(sp *obs.Span, st *opStats) {
	if st == nil {
		return
	}
	// Floor to 1ns: an operator that was never pulled (early error upstream)
	// has ns==0, and Duration==0 is the trace invariant for "unclosed".
	d := time.Duration(st.ns)
	if d <= 0 {
		d = 1
	}
	sp.SetDuration(d)
	sp.SetRows(-1, st.rows)
}

// actualSuffix renders the "(actual rows=… time=…)" annotation EXPLAIN
// ANALYZE appends to operator lines.
func (st *opStats) actualSuffix() string {
	if st == nil {
		return ""
	}
	return fmt.Sprintf(" (actual rows=%d time=%s)", st.rows, time.Duration(st.ns))
}

// finishStatement is the one completion path of a statement, traced to the
// sink or under a parent span: it records the statement-level metrics, feeds
// the slow-query log and closes the statement's span (nil when untraced).
// The SQL text is rendered lazily — only when a consumer needs it.
func (e *Engine) finishStatement(stmt interface{ String() string }, sp *obs.Span, d time.Duration, err error) {
	mStatements.Inc()
	mStatementNs.Observe(int64(d))
	if err != nil {
		mErrors.Inc()
	}
	if l := e.slow.Load(); l != nil {
		l.record(d, stmt.String())
	}
	if sp == nil {
		return
	}
	sp.SetDuration(d)
	if err != nil {
		sp.Attr("error", err.Error())
	}
}
