package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/value"
)

// The introspection catalog makes the engine observable through its own SQL
// dialect: read-only virtual relations (pct_stat_statements,
// pct_stat_activity, pct_metrics, pct_trace_recent — plus pct_cache_entries
// registered by the core planner) are materialized as snapshots at scan
// time, so the full dialect — WHERE, GROUP BY, Vpct/Hpct, ORDER BY —
// composes over the engine's own statistics. Behind the tables sit three
// recorders (internal/obs): per-fingerprint cumulative statement stats, the
// live-statement activity registry fed by governor counters, and a bounded
// flight recorder of recently completed statements.
//
// Self-observation guard: a statement that reads any virtual relation is
// served a snapshot but is itself excluded from fingerprint stats, activity,
// and the flight recorder, and so is every statement nested in it (a
// percentage query's generated steps) — querying pct_stat_statements twice
// must return identical rows for untouched fingerprints and must never grow a
// row for itself (counted in introspect.self_skipped).

// Introspection metrics.
var (
	mIntroRecorded    = obs.Default.Counter("introspect.recorded")
	mIntroSelfSkipped = obs.Default.Counter("introspect.self_skipped")
	mIntroSnapshots   = obs.Default.Counter("introspect.snapshots")
)

// IntrospectionConfig sizes the introspection state.
type IntrospectionConfig struct {
	// MaxStatements bounds the fingerprint table (<= 0: obs default).
	MaxStatements int
	// FlightRecords bounds the flight-recorder ring (<= 0: obs default).
	FlightRecords int
}

// introState is the engine's introspection state, swapped atomically so
// enabling and disabling race safely with statements in flight.
type introState struct {
	stats    *obs.StmtStats
	activity *obs.Activity
	flight   *obs.FlightRecorder
	seq      atomic.Int64
}

// stmtRec threads one recorded statement's identity from begin to complete.
type stmtRec struct {
	in      *introState
	id      int64
	norm    string
	hash    uint64
	ownSpan bool // the span was created for introspection, not by a caller
	// top is set for the statement a caller sent, clear for one nested in it.
	top bool
	// cacheHits and cacheMisses are the rewriter's summary-cache counts.
	cacheHits, cacheMisses int
	// parallel is set by the aggregation dispatch when the statement takes
	// the partitioned path. Written before worker fan-out and read after
	// join, both on the statement's goroutine.
	parallel bool
}

// EnableIntrospection switches statement recording on with cfg and registers
// the engine-owned virtual relations. Already-enabled engines keep their
// accumulated statistics (re-enabling is idempotent); use
// DisableIntrospection first for a fresh slate.
func (e *Engine) EnableIntrospection(cfg IntrospectionConfig) {
	if e.intro.Load() != nil {
		return
	}
	in := &introState{
		stats:    obs.NewStmtStats(cfg.MaxStatements),
		activity: obs.NewActivity(),
		flight:   obs.NewFlightRecorder(cfg.FlightRecords),
	}
	e.registerIntroTables(in)
	e.intro.Store(in)
}

// DisableIntrospection switches recording off and drops the engine-owned
// virtual relations plus their accumulated state. Relations registered by
// other layers (pct_cache_entries) stay.
func (e *Engine) DisableIntrospection() {
	e.intro.Store(nil)
	e.UnregisterVirtual("pct_stat_statements")
	e.UnregisterVirtual("pct_stat_activity")
	e.UnregisterVirtual("pct_metrics")
	e.UnregisterVirtual("pct_trace_recent")
}

// IntrospectionEnabled reports whether statement recording is on.
func (e *Engine) IntrospectionEnabled() bool { return e.intro.Load() != nil }

// StatementStats exposes the fingerprint table (nil when introspection is
// off) so the public API layer can size and reset it.
func (e *Engine) StatementStats() *obs.StmtStats {
	if in := e.intro.Load(); in != nil {
		return in.stats
	}
	return nil
}

// FlightRecords returns the retained flight-recorder records, oldest first
// (nil when introspection is off).
func (e *Engine) FlightRecords() []obs.FlightRecord {
	if in := e.intro.Load(); in != nil {
		return in.flight.Snapshot()
	}
	return nil
}

// ActiveStatements returns a snapshot of currently executing recorded
// statements (nil when introspection is off).
func (e *Engine) ActiveStatements() []obs.ActivitySnapshot {
	if in := e.intro.Load(); in != nil {
		return in.activity.Snapshot()
	}
	return nil
}

// outerKey marks the context of nested statements (nestedIn); its value says
// whether they are recorded.
type outerKey struct{}

// nestedIn marks ctx as the context of statements nested in another — the
// context a statement hands its rewriter. They are recorded with top = 0 when
// recorded is set, and not at all when it is clear (the outer statement is
// not recorded).
func nestedIn(ctx context.Context, recorded bool) context.Context {
	return context.WithValue(ctx, outerKey{}, recorded)
}

// Generated returns the context for statements generated on behalf of
// another rather than sent by a caller — a plan's steps, feedback scans and
// DROPs, however the plan is run — so they are recorded with top = 0. A
// context already nested in a statement (the one it hands its rewriter)
// comes back as is.
func Generated(ctx context.Context) context.Context {
	if ctx.Value(outerKey{}) != nil {
		return ctx
	}
	return nestedIn(ctx, true)
}

// beginIntro opens a statement record, or returns nil when the statement is
// not recorded: introspection is off, the statement reads a virtual relation
// — the guard that keeps pct_stat_statements from growing a row for its own
// scans — or it is nested in a statement that is not recorded. A nested
// statement is recorded with top = 0. sql is the statement text, rendered
// here unless the caller already did; stmt is nil for one that did not parse.
func (e *Engine) beginIntro(ctx context.Context, stmt sqlparse.Statement, sql *string) *stmtRec {
	in := e.intro.Load()
	if in == nil || ctx.Value(outerKey{}) == false {
		return nil
	}
	if e.stmtTouchesVirtual(stmt) {
		mIntroSelfSkipped.Inc()
		return nil
	}
	if *sql == "" && stmt != nil {
		*sql = stmt.String()
	}
	norm, hash := obs.Fingerprint(*sql)
	return &stmtRec{in: in, id: in.seq.Add(1), norm: norm, hash: hash, top: ctx.Value(outerKey{}) == nil}
}

// publish registers the statement in the activity registry; the progress
// closure reads the governor's shared atomic counters, so activity snapshots
// never touch statement-local state. Nil-receiver safe (unrecorded
// statements); complete deregisters it.
func (rec *stmtRec) publish(ec execCtx) {
	if rec == nil {
		return
	}
	c := ec.gov.c
	rec.in.activity.Begin(rec.id, rec.norm, rec.hash, ec.start, func() (int64, int64, int64) {
		return atomic.LoadInt64(&c.scanned), atomic.LoadInt64(&c.rows), atomic.LoadInt64(&c.bytes)
	})
}

// renderStages flattens a statement span tree into "stage=duration" pairs,
// skipping the root statement span itself (its wall time is the record's
// DurNs) — the flight recorder's one-line trace.
func renderStages(root *obs.Span) string {
	names, totals := root.StageTotals()
	var sb strings.Builder
	for _, n := range names {
		if n == root.Name {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(n)
		sb.WriteByte('=')
		sb.WriteString(totals[n].String())
	}
	return sb.String()
}

// ----- virtual relation provider -----

// virtualDef is one registered read-only relation: a fixed schema and a
// build function producing a point-in-time snapshot table at scan time.
type virtualDef struct {
	name   string
	schema storage.Schema
	build  func() (*storage.Table, error)
}

// RegisterVirtual registers (or replaces) a read-only virtual relation.
// The name must not collide with a stored table, and the relation rejects
// every DML/DDL statement targeting it.
func (e *Engine) RegisterVirtual(name string, schema storage.Schema, build func() (*storage.Table, error)) error {
	if e.cat.Has(name) {
		return fmt.Errorf("engine: cannot register virtual relation %q: a stored table with that name exists", name)
	}
	e.virtMu.Lock()
	if e.virt == nil {
		e.virt = make(map[string]*virtualDef)
	}
	e.virt[strings.ToLower(name)] = &virtualDef{name: name, schema: schema, build: build}
	e.virtMu.Unlock()
	return nil
}

// UnregisterVirtual removes a virtual relation; unknown names are a no-op.
func (e *Engine) UnregisterVirtual(name string) {
	e.virtMu.Lock()
	delete(e.virt, strings.ToLower(name))
	e.virtMu.Unlock()
}

// IsVirtualTable reports whether name is a registered virtual relation
// (case-insensitive, like the catalog).
func (e *Engine) IsVirtualTable(name string) bool {
	e.virtMu.RLock()
	_, ok := e.virt[strings.ToLower(name)]
	e.virtMu.RUnlock()
	return ok
}

// lookupVirtual returns the definition for name, or nil.
func (e *Engine) lookupVirtual(name string) *virtualDef {
	e.virtMu.RLock()
	d := e.virt[strings.ToLower(name)]
	e.virtMu.RUnlock()
	return d
}

// tableFor resolves a FROM name: virtual relations materialize a snapshot,
// everything else reads the catalog. The snapshot is taken once per scan —
// a self-join of pct_stat_statements sees two independent snapshots, each
// internally consistent.
func (e *Engine) tableFor(name string) (*storage.Table, error) {
	if d := e.lookupVirtual(name); d != nil {
		mIntroSnapshots.Inc()
		return d.build()
	}
	return e.cat.Get(name)
}

// ResolveTable resolves a stored table or materializes a virtual relation's
// snapshot — the read-side resolution outer layers (the planner's advisor)
// use when a statistic requires actual rows.
func (e *Engine) ResolveTable(name string) (*storage.Table, error) {
	return e.tableFor(name)
}

// ResolveSchema returns the schema of a stored or virtual relation without
// materializing a snapshot — what plan-time analysis needs.
func (e *Engine) ResolveSchema(name string) (storage.Schema, error) {
	if d := e.lookupVirtual(name); d != nil {
		return d.schema, nil
	}
	t, err := e.cat.Get(name)
	if err != nil {
		return nil, err
	}
	return t.Schema(), nil
}

// errVirtualReadOnly is the uniform rejection for DML/DDL against a virtual
// relation.
func errVirtualReadOnly(op, name string) error {
	return fmt.Errorf("engine: %s: %q is a read-only system relation", op, name)
}

// stmtTouchesVirtual reports whether the statement reads or targets any
// virtual relation — the self-observation predicate.
func (e *Engine) stmtTouchesVirtual(stmt sqlparse.Statement) bool {
	e.virtMu.RLock()
	n := len(e.virt)
	e.virtMu.RUnlock()
	if n == 0 {
		return false
	}
	switch s := stmt.(type) {
	case *sqlparse.Select:
		return e.selectTouchesVirtual(s)
	case *sqlparse.Insert:
		if e.IsVirtualTable(s.Table) {
			return true
		}
		return s.Query != nil && e.selectTouchesVirtual(s.Query)
	case *sqlparse.Update:
		if e.IsVirtualTable(s.Table) {
			return true
		}
		for _, f := range s.From {
			if e.IsVirtualTable(f.Name) {
				return true
			}
		}
	case *sqlparse.Delete:
		return e.IsVirtualTable(s.Table)
	case *sqlparse.CreateTable:
		return e.IsVirtualTable(s.Name)
	case *sqlparse.CreateIndex:
		return e.IsVirtualTable(s.Table)
	case *sqlparse.DropTable:
		return e.IsVirtualTable(s.Name)
	case *sqlparse.Explain:
		return s.Query != nil && e.selectTouchesVirtual(s.Query)
	}
	return false
}

func (e *Engine) selectTouchesVirtual(sel *sqlparse.Select) bool {
	for _, f := range sel.From {
		if e.IsVirtualTable(f.Table.Name) {
			return true
		}
	}
	return false
}

// ----- engine-owned snapshot builders -----

// registerIntroTables registers the four engine-owned relations over in.
// Builders capture in (not the engine's atomic), so snapshots stay coherent
// even if introspection is disabled mid-scan.
func (e *Engine) registerIntroTables(in *introState) {
	must := func(err error) {
		if err != nil {
			panic(err) // name collision with a stored table; programming error
		}
	}
	must(e.RegisterVirtual("pct_stat_statements", statStatementsSchema, func() (*storage.Table, error) {
		return buildStatStatements(in.stats)
	}))
	must(e.RegisterVirtual("pct_stat_activity", statActivitySchema, func() (*storage.Table, error) {
		return buildStatActivity(in.activity)
	}))
	must(e.RegisterVirtual("pct_metrics", metricsSchema, func() (*storage.Table, error) {
		return buildMetrics(obs.Default)
	}))
	must(e.RegisterVirtual("pct_trace_recent", traceRecentSchema, func() (*storage.Table, error) {
		return buildTraceRecent(in.flight)
	}))
}

var statStatementsSchema = storage.Schema{
	{Name: "fingerprint", Type: storage.TypeString},
	{Name: "query", Type: storage.TypeString},
	{Name: "top", Type: storage.TypeInt},
	{Name: "calls", Type: storage.TypeInt},
	{Name: "errors", Type: storage.TypeInt},
	{Name: "error_codes", Type: storage.TypeString},
	{Name: "total_ms", Type: storage.TypeFloat},
	{Name: "min_ms", Type: storage.TypeFloat},
	{Name: "max_ms", Type: storage.TypeFloat},
	{Name: "mean_ms", Type: storage.TypeFloat},
	{Name: "p50_ms", Type: storage.TypeFloat},
	{Name: "p99_ms", Type: storage.TypeFloat},
	{Name: "rows_out", Type: storage.TypeInt},
	{Name: "rows_scanned", Type: storage.TypeInt},
	{Name: "cache_hits", Type: storage.TypeInt},
	{Name: "cache_misses", Type: storage.TypeInt},
	{Name: "parallel", Type: storage.TypeInt},
}

func buildStatStatements(stats *obs.StmtStats) (*storage.Table, error) {
	t, err := storage.NewTable("pct_stat_statements", statStatementsSchema)
	if err != nil {
		return nil, err
	}
	for _, s := range stats.Snapshot() {
		top := int64(0)
		if s.Top {
			top = 1
		}
		mean := 0.0
		if s.Calls > 0 {
			mean = ms(s.TotalNs) / float64(s.Calls)
		}
		if _, err := t.AppendRow([]value.Value{
			value.NewString(fmt.Sprintf("%016x", s.Fingerprint)),
			value.NewString(s.Query),
			value.NewInt(top),
			value.NewInt(s.Calls),
			value.NewInt(s.Errors),
			value.NewString(renderErrCodes(s.ErrCodes)),
			value.NewFloat(ms(s.TotalNs)),
			value.NewFloat(ms(s.MinNs)),
			value.NewFloat(ms(s.MaxNs)),
			value.NewFloat(mean),
			value.NewFloat(ms(s.P50Ns)),
			value.NewFloat(ms(s.P99Ns)),
			value.NewInt(s.Rows),
			value.NewInt(s.RowsScanned),
			value.NewInt(s.CacheHits),
			value.NewInt(s.CacheMisses),
			value.NewInt(s.Parallel),
		}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

var statActivitySchema = storage.Schema{
	{Name: "sid", Type: storage.TypeInt},
	{Name: "query", Type: storage.TypeString},
	{Name: "state", Type: storage.TypeString},
	{Name: "elapsed_ms", Type: storage.TypeFloat},
	{Name: "rows_scanned", Type: storage.TypeInt},
	{Name: "rows_out", Type: storage.TypeInt},
	{Name: "bytes", Type: storage.TypeInt},
}

func buildStatActivity(a *obs.Activity) (*storage.Table, error) {
	t, err := storage.NewTable("pct_stat_activity", statActivitySchema)
	if err != nil {
		return nil, err
	}
	for _, s := range a.Snapshot() {
		if _, err := t.AppendRow([]value.Value{
			value.NewInt(s.ID),
			value.NewString(s.Query),
			value.NewString(s.State),
			value.NewFloat(ms(s.ElapsedNs)),
			value.NewInt(s.Scanned),
			value.NewInt(s.Rows),
			value.NewInt(s.Bytes),
		}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

var metricsSchema = storage.Schema{
	{Name: "name", Type: storage.TypeString},
	{Name: "kind", Type: storage.TypeString},
	{Name: "value", Type: storage.TypeInt},
	{Name: "count", Type: storage.TypeInt},
	{Name: "sum_ns", Type: storage.TypeInt},
	{Name: "p50_ns", Type: storage.TypeInt},
	{Name: "p99_ns", Type: storage.TypeInt},
}

func buildMetrics(r *obs.Registry) (*storage.Table, error) {
	t, err := storage.NewTable("pct_metrics", metricsSchema)
	if err != nil {
		return nil, err
	}
	for _, m := range r.Snapshot() {
		row := []value.Value{
			value.NewString(m.Name),
			value.NewString(m.Kind),
			value.NewInt(m.Value),
			value.NewInt(m.Count),
			value.NewInt(m.SumNs),
			value.NewInt(m.P50Ns),
			value.NewInt(m.P99Ns),
		}
		if m.Kind == "histogram" {
			row[2] = value.Null // value is meaningless for histograms
		} else {
			row[3], row[4], row[5], row[6] = value.Null, value.Null, value.Null, value.Null
		}
		if _, err := t.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

var traceRecentSchema = storage.Schema{
	{Name: "seq", Type: storage.TypeInt},
	{Name: "fingerprint", Type: storage.TypeString},
	{Name: "query", Type: storage.TypeString},
	{Name: "elapsed_ms", Type: storage.TypeFloat},
	{Name: "rows_out", Type: storage.TypeInt},
	{Name: "rows_scanned", Type: storage.TypeInt},
	{Name: "error_code", Type: storage.TypeString},
	{Name: "stages", Type: storage.TypeString},
	{Name: "ended_unix_ms", Type: storage.TypeInt},
}

func buildTraceRecent(f *obs.FlightRecorder) (*storage.Table, error) {
	t, err := storage.NewTable("pct_trace_recent", traceRecentSchema)
	if err != nil {
		return nil, err
	}
	for _, r := range f.Snapshot() {
		if _, err := t.AppendRow([]value.Value{
			value.NewInt(r.Seq),
			value.NewString(fmt.Sprintf("%016x", r.Fingerprint)),
			value.NewString(r.Query),
			value.NewFloat(ms(r.DurNs)),
			value.NewInt(r.Rows),
			value.NewInt(r.Scanned),
			value.NewString(r.ErrCode),
			value.NewString(r.Stages),
			value.NewInt(r.Start.Add(time.Duration(r.DurNs)).UnixMilli()),
		}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func renderErrCodes(codes map[string]int64) string {
	if len(codes) == 0 {
		return ""
	}
	keys := make([]string, 0, len(codes))
	for c := range codes {
		keys = append(keys, c)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, c := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s:%d", c, codes[c])
	}
	return sb.String()
}
