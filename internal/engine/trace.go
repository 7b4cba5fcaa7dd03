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
// methods are nil-receiver safe, and operator opStats are only allocated for
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
	// ref is the reference engine the statement runs its SELECT input on, nil
	// but under the package's tests; snapshotted from Engine.ref by
	// runStatement so one statement never mixes engines.
	ref reference
}

// fullSpan is the statement span when the statement is traced in full, nil
// when it is untraced or its span is a lite one: a span that exists only so
// the flight recorder gets its stage totals (introspection on, but no parent
// span and no EXPLAIN ANALYZE). Per-operator instrumentation and a rewritten
// plan's trace are skipped under a lite span: opStats cost two clock reads per
// operator per batch, the wrong price for always-on recording. Flight-record
// stages then carry the phase-level breakdown (aggregate, fold, sort,
// project, …), which costs one timestamp per phase.
func (ec execCtx) fullSpan() *obs.Span {
	if ec.rec != nil && ec.rec.ownSpan && ec.inspect == nil {
		return nil
	}
	return ec.span
}

// selInspect captures the executed SELECT pipeline so EXPLAIN ANALYZE can
// render the plan tree with actual row counts and timings after the run.
type selInspect struct {
	in       planNode // FROM plan root, residual filter included
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
	// statements over a resource limit, and panics contained into errors.
	mCancelled      = obs.Default.Counter("engine.cancelled")
	mLimitsExceeded = obs.Default.Counter("engine.limits.exceeded")
	mPanics         = obs.Default.Counter("engine.panics")
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
// cumulative time spent in the operator, inclusive of the operators below it
// (the way EXPLAIN ANALYZE actual times read everywhere), and rows produced.
// The pipeline fills it in once it ran (columns.go), from one clock reading
// per operator per batch. Allocated only for traced statements.
type opStats struct {
	ns   int64
	rows int64
}

// instrumentIter allocates opStats down a plan so every operator records its
// actual rows and cumulative time.
func instrumentIter(n planNode) {
	switch n := n.(type) {
	case *tableScan:
		n.stats = &opStats{}
	case *filterIter:
		n.stats = &opStats{}
		instrumentIter(n.child)
	case *hashJoin:
		n.stats = &opStats{}
		instrumentIter(n.left)
	case *nestedLoopJoin:
		n.stats, n.right.stats = &opStats{}, &opStats{}
		instrumentIter(n.left)
	case *valuesNode:
		n.stats = &opStats{}
	}
}

// operatorSpans converts an instrumented plan into a span subtree mirroring
// it, with durations taken from the accumulated per-operator stats. Because
// actual times are inclusive of children, each child's duration is bounded
// by its parent's, preserving the trace invariant that sequential children
// never out-sum their parent.
func operatorSpans(it planNode) *obs.Span {
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
			// Floor to 1ns: a build the fault point failed has buildNs==0,
			// and Duration==0 is the trace invariant for "unclosed".
			bs.SetDuration(max(time.Duration(b.buildNs), 1))
			bs.SetRows(b.buildRows, -1)
			if b.def != nil {
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
		if n.opened {
			// The right table is read in place; the span keeps the name
			// traces have always shown for that read.
			ms := obs.NewSpan("materialize right")
			ms.SetDuration(max(time.Duration(n.openNs), 1))
			ms.SetRows(-1, int64(n.right.count()))
			sp.AddChild(ms)
		}
		sp.AddChild(operatorSpans(n.left))
	case *valuesNode:
		if n.stats == nil {
			return nil
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
// it; a consumer that needs it and finds it empty renders it here. stmt is nil
// for a statement that did not parse (Unparsed).
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
		if sql == "" && stmt != nil {
			sql = stmt.String()
		}
		l.mu.Lock()
		fmt.Fprintf(l.w, "slow query (%s): %s\n", d, sql)
		l.mu.Unlock()
	}
	var rows int64
	if res != nil {
		rows = int64(max(res.Len(), res.Affected))
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
		Hash: rec.hash, Query: rec.norm, Top: rec.top,
		DurNs: d.Nanoseconds(), Rows: rows, Scanned: scanned,
		ErrCode: code, Parallel: rec.parallel,
		CacheHits: int64(rec.cacheHits), CacheMisses: int64(rec.cacheMisses),
	})
	rec.in.flight.Record(obs.FlightRecord{
		Fingerprint: rec.hash, Query: rec.norm, Start: ec.start,
		DurNs: d.Nanoseconds(), Rows: rows, Scanned: scanned,
		ErrCode: code, Stages: renderStages(ec.span),
	})
	mIntroRecorded.Inc()
}
