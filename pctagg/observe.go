// Observability surface of the public API: execution traces, the metrics
// registry, and the slow-query log. See DESIGN.md's "Observability" section
// for the span model and metric naming rules.
package pctagg

import (
	"context"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/obs"
)

// Span is one node of an execution trace: a named stage with a monotonic
// duration, optional row counts and attributes, and child stages. Concurrent
// spans (partition fan-outs) hold one child per worker whose wall times
// overlap. See internal/obs for the full API (Find, Walk, Format,
// StageTotals).
type Span = obs.Span

// Query-level metrics: statements by class, plus dynamic per-code error
// counters (query.errors.PCTxxx) registered on first occurrence.
var (
	mQueryPlain = obs.Default.Counter("query.plain")
	mQueryVpct  = obs.Default.Counter("query.vpct")
	mQueryHpct  = obs.Default.Counter("query.hpct")
	mQueryHagg  = obs.Default.Counter("query.hagg")
)

// SetTraceSink attaches a per-query trace sink: after every Query call the
// sink receives the root span of that query's execution trace (parse, plan,
// per-step statement spans, operator details, parallel worker breakdowns).
// Pass nil to detach. With no sink attached tracing is off and queries pay
// no tracing cost. The sink runs synchronously on the querying goroutine; it
// must not call back into the DB.
func (db *DB) SetTraceSink(fn func(*Span)) {
	if fn == nil {
		db.sink.Store(nil)
		return
	}
	db.sink.Store(&sinkBox{fn: fn})
}

// SetSlowQueryLog logs every SQL statement whose execution exceeds
// threshold to w, one "slow query (<duration>): <sql>" line each. A slow
// percentage query logs its own line, and each of its generated statements
// slow by itself one more. Pass a nil writer to disable.
func (db *DB) SetSlowQueryLog(w io.Writer, threshold time.Duration) {
	db.eng.SetSlowQueryLog(w, threshold)
}

// QueryTraced runs one SELECT like Query and also returns the execution
// trace, whether or not a trace sink is attached (the sink, if any, is not
// invoked). The trace is returned even when the query fails, annotated with
// the error.
func (db *DB) QueryTraced(sql string) (*Rows, *Span, error) {
	return db.QueryTracedCtx(context.Background(), sql)
}

// QueryTracedCtx is QueryTraced under a context (see QueryCtx). The trace is
// returned even when the query is cancelled mid-flight, with every span
// closed.
func (db *DB) QueryTracedCtx(ctx context.Context, sql string) (*Rows, *Span, error) {
	res, root, err := db.traced(ctx, sql)
	if err != nil {
		return nil, root, err
	}
	return toRows(res), root, nil
}

// traced runs one SELECT under a root span of its own, which it returns
// ended, with the error as an attribute when the query fails.
func (db *DB) traced(ctx context.Context, sql string) (*engine.Result, *Span, error) {
	root := obs.NewSpan("query")
	root.Attr("sql", sql)
	res, err := db.query(ctx, sql, root)
	root.End()
	if err != nil {
		root.Attr("error", err.Error())
	}
	return res, root, err
}

// MetricsJSON renders every registered metric — counters, gauges, and
// histograms, across the engine, planner, and query layers — as one sorted
// JSON object, expvar-style.
func (db *DB) MetricsJSON() string { return obs.Default.JSON() }

func countQueryClass(class core.QueryClass) {
	switch class {
	case core.ClassVertical:
		mQueryVpct.Inc()
	case core.ClassHorizontalPct:
		mQueryHpct.Inc()
	case core.ClassHorizontalAgg:
		mQueryHagg.Inc()
	default:
		mQueryPlain.Inc()
	}
}

// countQueryError bumps the per-diagnostic-code error counter. Any error
// carrying a stable PCTxxx code (diag.CodeOf) counts under it — planner
// rejections, parse failures, and the engine's typed lifecycle errors
// (cancellation, deadline, limits, contained panics) alike; anything else
// lands in query.errors.other.
func countQueryError(err error) {
	code := diag.CodeOf(err)
	if code == "" {
		code = "other"
	}
	obs.Default.Counter("query.errors." + code).Inc()
}
