package engine

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/diag"
	"repro/internal/obs"
	"repro/internal/sqlparse"
)

// Observability plumbing for statement execution. An execCtx carries the
// per-statement parallelism together with the statement's trace span; when
// the caller passed no parent span and introspection is off the span is nil
// and every instrumentation point degrades to a single pointer test (obs.Span
// methods are nil-receiver safe, and iterator opStats are only allocated for
// traced statements), so the sequential hot loop records metrics with atomic
// adds and zero allocations.

// execCtx threads per-statement execution state through the engine: the
// parallelism setting (see fold.go for its semantics) and the statement
// span child stages attach to (nil when tracing is off). The one literal is
// in ExecuteCtxIn; every inner context is a copy with fields changed.
type execCtx struct {
	par  int
	span *obs.Span
	// start is the statement's one clock reading (runStatement): complete
	// measures the one duration every consumer sees from it.
	start time.Time
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
	// batch selects the batch operators — the fold (fold.go), the column path
	// of a plain select (columns.go), the packed sort — over their row-at-a-time
	// references; snapshotted from Engine.batchOff by runStatement so one
	// statement never mixes paths.
	batch bool
}

// liteSpan reports whether the statement span exists only so the flight
// recorder gets its stage totals (introspection on, but no parent span and no
// EXPLAIN ANALYZE). Per-operator instrumentation is skipped for such spans:
// opStats cost two clock reads per operator per batch on the column path and
// per row through the iterators, the wrong price for always-on recording. Flight-record stages then carry the phase-level
// breakdown (aggregate, fold, sort, project, …), which costs one timestamp
// per phase.
func (ec execCtx) liteSpan() bool { return ec.rec != nil && ec.rec.ownSpan && ec.inspect == nil }

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

// SetSlowQueryLog logs statements slower than threshold to w, one line per
// statement ("slow query (<dur>): <sql>"). Pass a nil writer to disable.
func (e *Engine) SetSlowQueryLog(w io.Writer, threshold time.Duration) {
	if w == nil {
		e.slow.Store(nil)
		return
	}
	e.slow.Store(&slowLog{w: w, threshold: threshold})
}

// opStats is per-operator instrumentation for EXPLAIN ANALYZE and traces:
// cumulative time spent inside next() (inclusive of children, the way
// EXPLAIN ANALYZE actual times read everywhere) and rows produced. The batch
// operators fill it in once they ran — the fold from its partitions, the
// column path from one clock reading per operator per batch. Allocated only
// for traced statements; a nil *opStats keeps next() on the fast path.
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

// complete is the one end of a statement. It takes the one measured duration
// and the one error and feeds every consumer of a finished statement, in
// order: the statement and outcome counters, the slow-query log, the span,
// and — for a recorded statement — activity, the fingerprint statistics and
// the flight recorder. sql is the statement text if begin already rendered
// it; a consumer that needs it and finds it empty renders it here.
func (e *Engine) complete(stmt sqlparse.Statement, sql string, ec execCtx, res *Result, err error) {
	d := max(time.Since(ec.start), 1) // a finished span is never zero
	mStatements.Inc()
	mStatementNs.Observe(int64(d))
	if err != nil {
		mErrors.Inc()
		var c *CancelledError
		var l *LimitError
		switch {
		case errors.As(err, &c):
			mCancelled.Inc()
		case errors.As(err, &l):
			mLimitsExceeded.Inc()
		}
		// Panics are counted at recovery (NewPanicError): the panic may have
		// been contained in a worker, not at the dispatch.
	}
	if l := e.slow.Load(); l != nil && d >= l.threshold {
		if sql == "" {
			sql = stmt.String()
		}
		l.mu.Lock()
		fmt.Fprintf(l.w, "slow query (%s): %s\n", d, sql)
		l.mu.Unlock()
	}
	var rows int64
	if res != nil {
		rows = int64(max(len(res.Rows), res.Affected))
	}
	if sp := ec.span; sp != nil {
		if res != nil {
			sp.SetRows(-1, rows)
		}
		sp.SetDuration(d)
		if err != nil {
			sp.Attr("error", err.Error())
		}
	}
	rec := ec.rec
	if rec == nil {
		return
	}
	rec.in.activity.End(rec.id)
	code := diag.CodeOf(err)
	if err != nil && code == "" {
		code = "error"
	}
	scanned := ec.gov.scanned()
	rec.in.stats.Observe(obs.StmtObservation{
		Hash: rec.hash, Query: rec.norm, Top: false,
		DurNs: d.Nanoseconds(), Rows: rows, Scanned: scanned,
		ErrCode: code, Parallel: rec.parallel,
	})
	rec.in.flight.Record(obs.FlightRecord{
		Fingerprint: rec.hash, Query: rec.norm, Start: ec.start,
		DurNs: d.Nanoseconds(), Rows: rows, Scanned: scanned,
		ErrCode: code, Stages: renderStages(ec.span),
	})
	mIntroRecorded.Inc()
}
