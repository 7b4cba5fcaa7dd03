// Package pctagg is the public API of the percentage-aggregation library:
// an embedded SQL engine extended with the two aggregate functions of
// "Vertical and Horizontal Percentage Aggregations" (SIGMOD 2004) and the
// generalized horizontal aggregations of its companion paper.
//
// Open a database, create tables, load rows, and query with standard SQL
// plus the extensions:
//
//	db := pctagg.Open()
//	db.Exec(`CREATE TABLE sales (state VARCHAR, city VARCHAR, salesAmt INTEGER)`)
//	db.Exec(`INSERT INTO sales VALUES ('CA', 'San Francisco', 13), …`)
//
//	// Vertical percentages: one row per percentage.
//	rows, _ := db.Query(`SELECT state, city, Vpct(salesAmt BY city)
//	                     FROM sales GROUP BY state, city`)
//
//	// Horizontal percentages: each 100% group on one row, one column per
//	// BY combination.
//	rows, _ = db.Query(`SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state`)
//
//	// Horizontal aggregations (companion paper): any standard aggregate
//	// with a BY list, e.g. building a tabular data set for mining.
//	rows, _ = db.Query(`SELECT store, sum(amt BY dweek), sum(amt) FROM f GROUP BY store`)
//
// Percentage and horizontal queries are rewritten into multi-statement
// standard SQL by the planner — the role the paper's Java code generator
// plays — and executed against the embedded engine. Explain returns that
// generated SQL. Strategies replicates the paper's evaluation knobs.
package pctagg

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/value"
)

// DB is an embedded database with percentage-aggregation support. A DB is
// not safe for concurrent writes; guard it externally if needed.
type DB struct {
	eng     *engine.Engine
	planner *core.Planner
	strat   Strategies
	auto    bool
	// sink is the per-query trace sink (see SetTraceSink), boxed in an
	// atomic pointer so attaching or detaching it races safely with queries
	// in flight — the same discipline the engine uses for its slow-query log.
	sink atomic.Pointer[sinkBox]
}

// sinkBox wraps the sink callback so it can live in an atomic.Pointer.
type sinkBox struct{ fn func(*Span) }

// Open creates an empty database with the paper's recommended default
// strategies. Aggregations run in automatic parallel mode (one worker per
// CPU once the input is large enough to pay off); see SetParallelism.
func Open() *DB {
	eng := engine.New(storage.NewCatalog())
	eng.SetParallelism(0)
	return newDB(eng, core.NewPlanner(eng))
}

// newDB wraps an engine and its planner with the default strategies, and
// installs the DB's rewriter on the engine: from then on the engine evaluates
// percentage queries however they reach it.
func newDB(eng *engine.Engine, planner *core.Planner) *DB {
	db := &DB{eng: eng, planner: planner, strat: DefaultStrategies()}
	eng.SetRewriter(rewriter{db})
	return db
}

// SetParallelism sets the aggregation worker count of every subsequent
// statement, a percentage query's generated ones included: 0 (the default)
// uses one worker per CPU on large inputs, 1 forces the sequential path,
// n > 1 forces exactly n workers. It is the engine's setting
// (Engine().SetParallelism sets the same one), safe to change while queries
// run. Results are identical across settings — the parallel path's
// deterministic merge reproduces the sequential output exactly.
func (db *DB) SetParallelism(p int) { db.eng.SetParallelism(p) }

// Parallelism returns the engine's aggregation parallelism, the one every
// statement runs with.
func (db *DB) Parallelism() int { return db.eng.Parallelism() }

// Limits bounds the resources one statement may consume; the zero value
// means unlimited. See engine.Limits for the per-field semantics.
type Limits = engine.Limits

// SetLimits installs database-wide resource limits, enforced on every
// subsequent statement whose context carries none of its own
// (engine.WithLimits, which the server stamps for each tenant): row, group
// and byte budgets fail the statement with a typed PCT2xx error instead of
// exhausting memory, MaxPivotColumns rejects oversized horizontal layouts at
// plan time, and Timeout is the deadline of each statement sent. A
// percentage query's generated statements run under exactly the limits of
// the statement that generated it: all within its deadline, each held to
// the budgets on its own. The zero value removes all limits.
func (db *DB) SetLimits(l Limits) { db.eng.SetLimits(l) }

// Limits returns the database-wide resource limits.
func (db *DB) Limits() Limits { return db.eng.Limits() }

// Rows is a query result: column names and row data. Values are plain Go
// types: nil (SQL NULL), int64, float64, string, bool.
type Rows struct {
	Columns []string
	Data    [][]any
}

// String renders the rows as an aligned text table.
func (r *Rows) String() string {
	return engine.NewResult(r.Columns, len(r.Data), func(k, j int) value.Value {
		if j < len(r.Data[k]) {
			return toValue(r.Data[k][j])
		}
		return value.Null
	}).Format()
}

// Exec runs one or more semicolon-separated statements (DDL, INSERT,
// UPDATE, or queries whose results are discarded) and returns the affected
// row count of the last statement.
func (db *DB) Exec(sql string) (int64, error) {
	return db.ExecCtx(context.Background(), sql)
}

// ExecCtx is Exec under a context: cancelling ctx stops the running
// statement cooperatively with a typed error, leaving its target table
// unchanged (statements are atomic — they commit fully or not at all).
func (db *DB) ExecCtx(ctx context.Context, sql string) (int64, error) {
	res, err := db.eng.ExecSQLCtxIn(ctx, sql, db.eng.Parallelism(), nil)
	if err != nil {
		return 0, err
	}
	return int64(res.Affected), nil
}

// Query runs one SELECT. Standard SQL executes directly; queries using
// Vpct, Hpct, BY-aggregates, or OVER(PARTITION BY …) are planned and
// evaluated with the configured strategies. With a trace sink attached (see
// SetTraceSink) each call also emits an execution trace.
func (db *DB) Query(sql string) (*Rows, error) {
	return db.QueryCtx(context.Background(), sql)
}

// QueryCtx is Query under a context: cancelling ctx stops the in-flight
// query cooperatively — scans, joins, folds, and parallel workers all check
// it — and returns a typed cancellation error (PCT200, or PCT201 past a
// deadline). Resource limits are enforced the same way: ctx's own
// (engine.WithLimits), else those SetLimits installed, on the query and on
// every statement it generates.
func (db *DB) QueryCtx(ctx context.Context, sql string) (*Rows, error) {
	res, err := db.QueryTypedCtx(ctx, sql)
	if err != nil {
		return nil, err
	}
	return toRows(res), nil
}

// QueryTypedCtx is QueryCtx with the result's columns left typed, for a
// caller that writes the cells out itself, as the server's wire encoder does:
// it parses, counts and traces the statement as QueryCtx does, and boxes
// nothing. Read the result through Len and Vectors, or Box it.
func (db *DB) QueryTypedCtx(ctx context.Context, sql string) (*engine.Result, error) {
	// One load covers both the decision to trace and the delivery, so a
	// concurrent SetTraceSink can never tear the pair.
	sink := db.sink.Load()
	if sink == nil {
		return db.query(ctx, sql, nil)
	}
	res, root, err := db.traced(ctx, sql)
	sink.fn(root)
	return res, err
}

// query parses one SELECT or EXPLAIN and runs it as one engine statement,
// traced under root when root is non-nil: a parse span, then the statement
// span, under which a planned query's plan hangs (see rewriter). A syntax
// error ends the statement before it runs.
func (db *DB) query(ctx context.Context, sql string, root *Span) (*engine.Result, error) {
	ps := root.NewChild("parse")
	stmt, err := sqlparse.Parse(sql)
	ps.End()
	if err != nil {
		db.eng.Unparsed(ctx, sql, err)
		countQueryError(err)
		return nil, err
	}
	switch s := stmt.(type) {
	case *sqlparse.Select:
		// A class the paper rules out is counted once, below: the rewriter
		// fails with Classify's error.
		if class, err := core.Classify(s); err == nil {
			countQueryClass(class)
		}
	case *sqlparse.Explain:
	default:
		return nil, fmt.Errorf("pctagg: Query needs a SELECT; use Exec for %T", stmt)
	}
	res, err := db.eng.ExecuteCtxIn(ctx, stmt, db.eng.Parallelism(), root)
	if err != nil {
		countQueryError(err)
		return nil, err
	}
	return res, nil
}

// toRows converts a result's typed columns to Rows in one pass, a column at a
// time, with no value.Value in between. The cells sit in one slab; a row is a
// full slice expression of it, so a caller's append cannot run into the next
// row. A VARCHAR column boxes each string of its dictionary once — when the
// dictionary is no more than four times the rows, so a small result of a
// large table's strings boxes per cell instead.
func toRows(res *engine.Result) *Rows {
	out := &Rows{Columns: res.Columns}
	n, vecs := res.Len(), res.Vectors()
	if n == 0 {
		return out
	}
	w := len(vecs)
	slab := make([]any, n*w)
	out.Data = make([][]any, n)
	for k := range out.Data {
		out.Data[k] = slab[k*w : (k+1)*w : (k+1)*w]
	}
	for j := range vecs {
		v := &vecs[j]
		switch {
		case v.Boxed:
			for k, x := range v.Vals[:n] {
				slab[k*w+j] = fromValue(x)
			}
		case v.Type == storage.TypeInt:
			convert(slab[j:], w, v.Ints[:n], v.Nulls)
		case v.Type == storage.TypeFloat:
			convert(slab[j:], w, v.Flts[:n], v.Nulls)
		case v.Type == storage.TypeBool:
			convert(slab[j:], w, v.Bools[:n], v.Nulls)
		case v.Dict.Len() > 4*n:
			strs := v.Dict.Strs()
			for k, c := range v.Codes[:n] {
				if !v.Nulls.Get(k) {
					slab[k*w+j] = strs[c]
				}
			}
		default:
			strs, memo := v.Dict.Strs(), make([]any, v.Dict.Len())
			for k, c := range v.Codes[:n] {
				if v.Nulls.Get(k) {
					continue
				}
				if memo[c] == nil {
					memo[c] = strs[c]
				}
				slab[k*w+j] = memo[c]
			}
		}
	}
	return out
}

// convert boxes a typed column's cells into every w-th cell of dst, leaving
// its NULL cells nil.
func convert[T int64 | float64 | bool](dst []any, w int, cells []T, nulls storage.NullBitmap) {
	for k, x := range cells {
		if !nulls.Get(k) {
			dst[k*w] = x
		}
	}
}

// rewriter is the DB's engine.Rewriter: it plans the SELECTs the engine hands
// it — percentage and horizontal aggregations, GROUP BY ROLLUP/CUBE/GROUPING
// SETS — with the DB's strategies, and runs the plan under the context of the
// statement that carries the SELECT, so every generated statement is nested
// in it and bound by its deadline.
type rewriter struct{ db *DB }

// options resolves the options a statement plans with: the advisor's pick
// under AutoStrategy — its feedback scan run at the statement's parallelism
// and traced under sp, the plan span (nil: untraced) — the configured
// strategies otherwise, with the statement's parallelism stamped on either.
// Limits are no option: the plan resolves them from ctx, as every statement
// it runs does.
func (db *DB) options(ctx context.Context, sel *sqlparse.Select, par int, sp *Span) (core.Options, error) {
	opts := db.strat.coreOptions()
	if db.auto {
		var err error
		if opts, err = db.planner.AdviseIn(ctx, sel, par, sp); err != nil {
			return opts, err
		}
	}
	opts.Parallelism = par
	return opts, nil
}

// plan plans sel with the statement's options under sp, where the
// statements of the advisor's feedback scan and of its summary-cache lookups
// nest (nil: untraced).
func (r rewriter) plan(ctx context.Context, sel *sqlparse.Select, par int, sp *Span) (*core.Plan, error) {
	opts, err := r.db.options(ctx, sel, par, sp)
	if err != nil {
		return nil, err
	}
	return r.db.planner.PlanIn(ctx, sel, opts, sp)
}

// Select evaluates sel through its plan, whose trace nests under parent.
func (r rewriter) Select(ctx context.Context, sel *sqlparse.Select, par int, parent *Span) (*engine.Result, int, int, error) {
	sp := parent.NewChild("plan")
	plan, err := r.plan(ctx, sel, par, sp)
	sp.End()
	if err != nil {
		return nil, 0, 0, err
	}
	hits, misses := plan.CacheHits(), plan.CacheMisses()
	res, trace, err := r.db.planner.ExecuteTyped(ctx, plan, parent != nil)
	parent.AddChild(trace)
	return res, hits, misses, err
}

// Explain renders the generated multi-statement SQL script (the paper's
// code-generator output), or — under EXPLAIN ANALYZE — the execution trace of
// actually running the plan, one span per line with actual rows and times.
func (r rewriter) Explain(ctx context.Context, ex *sqlparse.Explain, par int, parent *Span) (*engine.Result, error) {
	if !ex.Analyze {
		script, err := r.db.explain(ctx, ex.Query, par)
		if err != nil {
			return nil, err
		}
		return engine.PlanResult(strings.Split(strings.TrimRight(script, "\n"), "\n")), nil
	}
	// The plan span holds the statements the summary cache's lookups ran
	// while planning; it leads the rendering when there are any.
	sp := obs.NewSpan("plan")
	parent.AddChild(sp)
	plan, err := r.plan(ctx, ex.Query, par, sp)
	sp.End()
	if err != nil {
		return nil, err
	}
	res, trace, err := r.db.planner.ExecuteTyped(ctx, plan, true)
	parent.AddChild(trace)
	if err != nil {
		return nil, err
	}
	text := trace.Format()
	if len(sp.Children) > 0 {
		text = sp.Format() + text
	}
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	return engine.PlanResult(append(lines, fmt.Sprintf("Execution: rows=%d time=%s", res.Len(), trace.Duration))), nil
}

// Explain returns the standard-SQL plan the query rewriter generates for a
// percentage/horizontal query — the output of the paper's code generator —
// planned exactly as Query plans it (strategies or the advisor, limits), but
// for display: it reads the summary cache and changes nothing. Standard
// queries return themselves.
func (db *DB) Explain(sql string) (string, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return "", err
	}
	sel, ok := stmt.(*sqlparse.Select)
	if !ok {
		return "", fmt.Errorf("pctagg: Explain needs a SELECT, got %T", stmt)
	}
	return db.explain(context.Background(), sel, db.eng.Parallelism())
}

// explain renders sel's plan for display (core.Planner.PlanDisplay).
func (db *DB) explain(ctx context.Context, sel *sqlparse.Select, par int) (string, error) {
	opts, err := db.options(ctx, sel, par, nil)
	if err != nil {
		return "", err
	}
	plan, err := db.planner.PlanDisplay(ctx, sel, opts)
	if err != nil {
		return "", err
	}
	return plan.SQL(), nil
}

// OLAPEquivalent returns the ANSI SQL/OLAP window-function formulation of
// a percentage query — the baseline the paper's Section 4.2 compares
// against. It is directly executable with Query.
func (db *DB) OLAPEquivalent(sql string) (string, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return "", err
	}
	sel, ok := stmt.(*sqlparse.Select)
	if !ok {
		return "", fmt.Errorf("pctagg: expected a SELECT")
	}
	return db.planner.OLAPEquivalent(sel)
}

// Diagnostic is one finding of the percentage-query linter: a stable
// PCTxxx code, a severity ("error", "warning", or "advisory"), a 1-based
// source position (zero when the finding has no single location), the
// human-readable message, and an optional suggested fix.
type Diagnostic struct {
	Code     string
	Severity string
	Line     int
	Col      int
	Message  string
	Fix      string
}

// String renders the diagnostic as a compiler-style line.
func (d Diagnostic) String() string {
	s := ""
	if d.Line > 0 {
		s = fmt.Sprintf("%d:%d: ", d.Line, d.Col)
	}
	s += fmt.Sprintf("%s[%s]: %s", d.Severity, d.Code, d.Message)
	if d.Fix != "" {
		s += "\n    fix: " + d.Fix
	}
	return s
}

// Lint statically checks the SELECT statements of a SQL script against the
// database's catalog and live data without running them: every violation
// of the paper's usage rules (the errors Query would report one at a
// time), plus warnings for its silent failure modes — division by zero,
// missing grouping combinations, Hpct column explosion — and strategy
// advisories. Non-SELECT statements in the script are ignored, not
// executed.
func (db *DB) Lint(sql string) []Diagnostic {
	ds := lint.New(db.planner).LintQueries(sql)
	out := make([]Diagnostic, len(ds))
	for i, d := range ds {
		out[i] = Diagnostic{
			Code:     d.Code,
			Severity: d.Severity.String(),
			Line:     d.Span.Start.Line,
			Col:      d.Span.Start.Col,
			Message:  d.Message,
			Fix:      d.Fix,
		}
	}
	return out
}

// InsertRows bulk-appends rows into a table without SQL parsing, the fast
// path for loading generated data. Row values use the same Go types Rows
// returns; integers may be int or int64.
func (db *DB) InsertRows(table string, rows [][]any) error {
	t, err := db.eng.Catalog().Get(table)
	if err != nil {
		return err
	}
	vals := make([]value.Value, 0, 16)
	for ri, row := range rows {
		vals = vals[:0]
		for _, c := range row {
			vals = append(vals, toValue(c))
		}
		if _, err := t.AppendRow(vals); err != nil {
			return fmt.Errorf("pctagg: row %d: %w", ri, err)
		}
	}
	return nil
}

// Tables lists the tables in the database.
func (db *DB) Tables() []string { return db.eng.Catalog().Names() }

// Engine exposes the underlying engine for embedding layers — the server
// front door registers its pct_stat_sessions virtual table through it.
// Most callers never need it.
func (db *DB) Engine() *engine.Engine { return db.eng }

// AutoStrategy toggles the strategy advisor: before each horizontal query,
// one scan of F measures the fine-grouping size |Fk|, and its ratio to |F|
// picks from F or from FV (core.Advise states the measured rule); vertical
// queries get the paper's Section 4 recommendations, which are the
// defaults. It overrides SetStrategies.
func (db *DB) AutoStrategy(on bool) { db.auto = on }

// EnableSummaryCache toggles the materialized summary cache: while enabled,
// structurally identical intermediate aggregates (the Fk/Fj tables) are
// computed once and reused by later percentage queries — the paper's
// "shared summaries" idea for query batches. The cache is DML-aware:
// INSERTs through the engine refresh distributive summaries incrementally
// (aggregate only the new rows, merge), UPDATE/DELETE/DROP invalidate and
// rebuild — a cached summary is never served stale. Call FlushSummaries
// when the batch is done to reclaim the cache tables.
func (db *DB) EnableSummaryCache(on bool) { db.planner.ShareSummaries(on) }

// CacheStats is a snapshot of the summary cache's counters — hits, misses,
// invalidations, incremental refreshes (and their fault fallbacks), and
// Fj-from-cached-Fk rollups.
type CacheStats = core.CacheStats

// SummaryCacheStats returns a snapshot of the summary cache's counters.
func (db *DB) SummaryCacheStats() CacheStats { return db.planner.CacheStats() }

// FlushSummaries empties the summary cache and drops its tables; a table a
// query in flight still reads goes when that query finishes.
func (db *DB) FlushSummaries() { db.planner.FlushSummaries() }

// MaxColumns reports the configured per-table column limit used to decide
// when horizontal results are vertically partitioned.
func (db *DB) MaxColumns() int { return db.planner.MaxColumns }

// SetMaxColumns configures the per-table column limit (the paper's DBMS
// constraint that forces vertical partitioning of wide FH tables).
func (db *DB) SetMaxColumns(n int) { db.planner.MaxColumns = n }

func fromValue(v value.Value) any {
	switch v.Kind() {
	case value.KindInt:
		return v.Int()
	case value.KindFloat:
		return v.Float()
	case value.KindString:
		return v.Str()
	case value.KindBool:
		return v.Bool()
	default:
		return nil
	}
}

func toValue(c any) value.Value {
	switch x := c.(type) {
	case nil:
		return value.Null
	case int:
		return value.NewInt(int64(x))
	case int64:
		return value.NewInt(x)
	case float64:
		return value.NewFloat(x)
	case string:
		return value.NewString(x)
	case bool:
		return value.NewBool(x)
	default:
		return value.NewString(fmt.Sprint(x))
	}
}
