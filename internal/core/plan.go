package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/value"
)

// Plan-level metrics (see internal/obs). Steps count the SQL steps plans
// run; the per-statement engine metrics accumulate underneath.
var (
	mPlanExecutions = obs.Default.Counter("core.plans")
	mPlanSteps      = obs.Default.Counter("core.steps")
)

// Step is one statement of a generated plan — the script the paper's code
// generator writes. A step without SQL is a comment: the marker a summary the
// cache answered leaves in the plan (the cache lookup did that work while
// planning). Dropping the plan's temporaries afterwards is no step (see
// Plan.Cleanup).
type Step struct {
	// Purpose says what the step does, for EXPLAIN-style display.
	Purpose string
	// SQL is the statement text; empty for a comment-only marker.
	SQL string
}

// Plan is a generated evaluation plan for a percentage/horizontal query.
type Plan struct {
	// Class is the query class the plan evaluates.
	Class QueryClass
	// Steps build the result table(s), in order.
	Steps []Step
	// FinalSelect projects the user-facing result from ResultTable
	// (ordering, aliases). It is separate from Steps so benchmarks can time
	// plan execution the way the paper does, without the final cursor.
	FinalSelect string
	// ResultTable holds the computed result (FV or FH).
	ResultTable string
	// ResultTables lists every partition when a horizontal result exceeded
	// MaxColumns and was vertically partitioned; ResultTable is the first.
	ResultTables []string
	// Cleanup names the plan's temporary tables, the result table(s)
	// included. Cleanup drops them by name, straight from the catalog
	// (engine.DropIfExists): no SQL text, no parse, no statement.
	Cleanup []string
	// N is the number of horizontal result columns (0 for vertical plans).
	N int
	// Parallelism is the worker count the plan's steps execute with,
	// stamped from Options.Parallelism (0 = one worker per CPU, 1 =
	// sequential, n > 1 = n workers). It never changes the generated SQL —
	// only how the engine folds each aggregation.
	Parallelism int
	// cacheHits and cacheMisses count the summaries the plan's cache lookups
	// reused (as they were or refreshed) and built — the per-statement signal
	// the introspection catalog surfaces in pct_stat_statements.
	cacheHits, cacheMisses int
	// pins are the cached tables the plan reads, bound from the lookup to the
	// plan's cleanup: a summary retired meanwhile is dropped when the last
	// plan that bound it lets go.
	pins []string
	// display, span and err serve while the plan is generated: a plan for
	// display reads the cache and changes nothing (PlanDisplay), span is where
	// the cache lookups' statements nest, nil when untraced, and err is the
	// first failed lookup's error, which planning returns.
	display bool
	span    *obs.Span
	err     error
}

// CacheHits reports how many summaries the plan reused from the cache.
func (p *Plan) CacheHits() int { return p.cacheHits }

// CacheMisses reports how many summaries the plan had to compute and
// register (shareable aggregates that were not cached yet).
func (p *Plan) CacheMisses() int { return p.cacheMisses }

// SQL renders every build step as a script.
func (p *Plan) SQL() string {
	var sb strings.Builder
	for _, s := range p.Steps {
		sb.WriteString("-- ")
		sb.WriteString(s.Purpose)
		sb.WriteString("\n")
		if s.SQL == "" {
			continue
		}
		sb.WriteString(s.SQL)
		sb.WriteString(";\n")
	}
	if p.FinalSelect != "" {
		sb.WriteString("-- final result\n")
		sb.WriteString(p.FinalSelect)
		sb.WriteString(";\n")
	}
	return sb.String()
}

// Planner analyzes percentage queries and generates evaluation plans. It
// needs an engine: horizontal plans require the feedback process the paper
// describes (reading the distinct BY-column combinations to lay out result
// columns), and Execute runs plans.
type Planner struct {
	// Eng is the engine plans are generated for and executed on.
	Eng *engine.Engine
	// MaxColumns is the DBMS column limit per table; horizontal results
	// wider than this are vertically partitioned. Defaults to 2048.
	MaxColumns int
	// TempPrefix prefixes generated temporary table names. Defaults to
	// "pct".
	TempPrefix string

	mu  sync.Mutex // guards seq and the summary cache
	seq int

	// Shared summaries (the paper's future-work item "a set of percentage
	// queries on the same table may be efficiently evaluated using shared
	// summaries"): when enabled, structurally identical Fk/Fj aggregates
	// are computed once and reused across plans. Entries are stamped with
	// the base table's modification epoch and maintained through the
	// engine's DML hook — appends refresh distributive summaries
	// incrementally, everything else invalidates (see cache.go). A cache
	// table is dropped when it is retired — replaced by a refresh,
	// invalidated, flushed — and no unfinished plan has bound it.
	shareSummaries bool
	summaries      map[string]*summaryEntry // structural key → entry
	pins           map[string]int           // cache table → plans and lookups that bound it
	retired        map[string]bool          // retired tables still bound
	unbound        []string                 // retired tables nothing binds, dropped by unlock
	cstats         CacheStats
}

// NewPlanner returns a planner over the engine with default limits.
func NewPlanner(eng *engine.Engine) *Planner {
	return &Planner{Eng: eng, MaxColumns: 2048, TempPrefix: "pct"}
}

// ShareSummaries toggles the materialized summary cache. While enabled,
// a plan reads a cached Fk/Fj table where a structurally identical summary
// is cached — the lookup refreshes or builds it first — and a DML hook
// installed on the engine keeps entries honest: appended rows are folded in
// incrementally (distributive aggregates only), any other mutation forces
// a rebuild — a cached summary is never served stale. Call FlushSummaries
// when the query batch is done. Only one planner's cache may be live per
// engine.
func (p *Planner) ShareSummaries(on bool) {
	p.mu.Lock()
	p.shareSummaries = on
	if on && p.summaries == nil {
		p.summaries = make(map[string]*summaryEntry)
		p.pins = make(map[string]int)
		p.retired = make(map[string]bool)
	}
	p.mu.Unlock()
	if p.Eng != nil {
		if on {
			p.Eng.SetDMLHook(&cacheDMLHook{p: p})
		} else {
			p.Eng.SetDMLHook(nil)
		}
	}
}

// SharesSummaries reports whether the summary cache is on, so that a caller
// that turns it on for a while can put it back.
func (p *Planner) SharesSummaries() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.shareSummaries
}

// FlushSummaries empties the summary cache and retires every table it
// holds: each is dropped now, or by the cleanup of the last unfinished plan
// that bound it.
func (p *Planner) FlushSummaries() {
	p.mu.Lock()
	for _, e := range p.summaries {
		p.retireLocked(e.table) // again, for an invalid one: a drop of no table is nothing
	}
	p.summaries = map[string]*summaryEntry{}
	p.unlock()
}

// temp returns a fresh temporary table name. Safe for concurrent planning
// (the paper's intensive-database future-work scenario: users concurrently
// submitting percentage queries).
func (p *Planner) temp(kind string) string {
	p.mu.Lock()
	p.seq++
	n := p.seq
	p.mu.Unlock()
	return fmt.Sprintf("%s_%s_%d", p.TempPrefix, kind, n)
}

// owns registers table, a temporary the plan creates, with the plan's
// cleanup and returns it.
func (plan *Plan) owns(table string) string {
	plan.Cleanup = append(plan.Cleanup, table)
	return table
}

// Options selects evaluation strategies per query class, and the plan's
// parallelism. Limits are not an option: the statements a plan runs resolve
// theirs from the context it runs under (engine.EffectiveLimits).
type Options struct {
	Vpct VpctOptions
	Hpct HpctOptions
	Hagg HaggOptions
	// Parallelism is the aggregation worker count for the plan's execution:
	// 0 = one worker per CPU (the automatic mode falls back to the
	// sequential fold below a small input threshold), 1 = the sequential
	// path, n > 1 = exactly n workers, forced even on tiny inputs. Results
	// are identical across settings — the partitioned fold merges
	// per-worker accumulators in pinned partition order, reproducing the
	// sequential group order exactly (see internal/difftest).
	Parallelism int
}

// DefaultOptions returns the strategies the paper's evaluation found best
// overall: Fj from Fk, INSERT-based FV, subkey indexes on Fj/Fk, FH direct
// from F, CASE-based horizontal aggregation direct from F.
func DefaultOptions() Options {
	return Options{
		Vpct: VpctOptions{SubkeyIndexes: true},
		Hpct: HpctOptions{},
		Hagg: HaggOptions{},
	}
}

// VpctOptions are the vertical-percentage strategy knobs of Table 4.
type VpctOptions struct {
	// FjFromF computes the coarse totals Fj from F instead of from the
	// partial aggregate Fk (Table 4 column 4 turns the partial-aggregate
	// optimization off by setting this).
	FjFromF bool
	// UseUpdate produces FV by updating Fk in place instead of inserting
	// into a third table (Table 4 column 3). Saves the third temporary
	// table when disk is tight, at a large time cost when |FV| ≈ |F|.
	UseUpdate bool
	// SubkeyIndexes creates identical indexes on the common subkey of Fj
	// and Fk before the division join (Table 4 column 2 drops them).
	SubkeyIndexes bool
	// MissingRows selects the optional missing-row treatment.
	MissingRows MissingRowsMode
}

// MissingRowsMode selects the paper's optional missing-row treatments for
// vertical percentages.
type MissingRowsMode int

// Missing-row treatments.
const (
	// MissingNone leaves missing (Dj+1..Dk) combinations absent, the
	// default.
	MissingNone MissingRowsMode = iota
	// MissingPost inserts zero-percentage rows into the result table for
	// absent combinations (post-processing).
	MissingPost
	// MissingPre inserts zero-measure rows into F before aggregating
	// (pre-processing). It mutates F and, as the paper warns, skews
	// Vpct(1) row-count percentages.
	MissingPre
)

// HpctOptions are the horizontal-percentage strategy knobs of Table 5.
type HpctOptions struct {
	// FromFV computes FH from the vertical percentage table FV instead of
	// directly from F. The embedded vertical plan always uses
	// DefaultOptions().Vpct.
	FromFV bool
	// Vpct is ignored.
	//
	// Deprecated: it used to configure the embedded vertical plan. The field
	// survives only because benchmark/trace.go, frozen outside benchmark-only
	// PRs, names it in a composite literal; delete it with that literal.
	Vpct VpctOptions
}

// HaggMethod selects the companion paper's evaluation strategy.
type HaggMethod int

// Horizontal-aggregation methods.
const (
	// HaggCASE evaluates with N CASE terms in one aggregation (the
	// efficient strategy).
	HaggCASE HaggMethod = iota
	// HaggSPJ evaluates with N filtered aggregate tables assembled by left
	// outer joins (the relational-only strategy).
	HaggSPJ
)

// HaggOptions are the companion paper's strategy knobs (its Table 3).
type HaggOptions struct {
	Method HaggMethod
	// FromFV aggregates from the vertical pre-aggregate FV instead of F
	// (the indirect sub-strategy).
	FromFV bool
}

// Plan analyzes the query and generates a plan using the given options.
// Standard queries yield a single-step plan that runs the query as is.
func (p *Planner) Plan(sel *sqlparse.Select, opts Options) (*Plan, error) {
	return p.PlanCtx(context.Background(), sel, opts)
}

// PlanCtx is Plan under a context: the feedback scans horizontal planning
// runs over F and the statements of the summary cache's lookups stop on
// ctx's cancellation or deadline with the typed lifecycle errors, obey the
// limits ctx resolves to (engine.EffectiveLimits), and nest in the statement
// ctx belongs to, exactly as the plan's steps do under ExecuteCtx. A
// horizontal layout wider than those limits' MaxPivotColumns fails planning
// with PCT204, before any step runs.
func (p *Planner) PlanCtx(ctx context.Context, sel *sqlparse.Select, opts Options) (*Plan, error) {
	return p.planIn(ctx, sel, opts, nil, false)
}

// PlanIn is PlanCtx traced: the statements the summary cache's lookups run
// while planning nest under span.
func (p *Planner) PlanIn(ctx context.Context, sel *sqlparse.Select, opts Options, span *obs.Span) (*Plan, error) {
	return p.planIn(ctx, sel, opts, span, false)
}

// PlanDisplay plans sel to be shown, not run — EXPLAIN without ANALYZE. It
// reads the summary cache and changes nothing: a summary the cache holds,
// current or pending, renders as its marker, and a missing one as the CREATE
// and INSERT of a private build. The plan creates no table and binds none,
// so it needs no cleanup; it must not be executed.
func (p *Planner) PlanDisplay(ctx context.Context, sel *sqlparse.Select, opts Options) (*Plan, error) {
	return p.planIn(ctx, sel, opts, nil, true)
}

// planIn is the one way a plan is generated. A plan that fails is cleaned
// up: it releases the cached tables its lookups bound.
func (p *Planner) planIn(ctx context.Context, sel *sqlparse.Select, opts Options, span *obs.Span, display bool) (*Plan, error) {
	a, err := p.analyze(sel)
	if err != nil {
		return nil, err
	}
	// Parallelism applies to every class and never alters the generated SQL,
	// only how the plan (and its cache lookups) execute.
	plan := &Plan{Class: a.class, Parallelism: opts.Parallelism, display: display, span: span}
	switch {
	case a.hasSets:
		// ROLLUP/CUBE/GROUPING SETS plan the whole lattice from one finest
		// summary, whatever the aggregate class.
		err = p.planLattice(ctx, plan, a, opts)
	case a.class == ClassStandard:
		plan.FinalSelect = sel.String()
	case a.class == ClassVertical:
		err = p.planVertical(ctx, plan, a, opts.Vpct)
	case a.class == ClassHorizontalPct:
		err = p.planHorizontalPct(ctx, plan, a, opts.Hpct)
	case a.class == ClassHorizontalAgg:
		err = p.planHorizontalAgg(ctx, plan, a, opts.Hagg)
	default:
		err = fmt.Errorf("core: unplannable class %v", a.class)
	}
	// The pivot-width cap is the one limit checkable before execution: the
	// feedback pass has already counted the result columns, so an oversized
	// layout fails here instead of mid-evaluation.
	if lim := p.Eng.EffectiveLimits(ctx); err == nil && lim.MaxPivotColumns > 0 && plan.N > lim.MaxPivotColumns {
		err = &engine.LimitError{
			PCTCode:  diag.CodePivotLimit,
			Resource: "pivot-column",
			Limit:    int64(lim.MaxPivotColumns),
		}
	}
	if err == nil {
		err = plan.err
	}
	if err != nil {
		p.CleanupPlan(plan)
		return nil, err
	}
	return plan, nil
}

// PlanSQL parses one SELECT and plans it.
func (p *Planner) PlanSQL(sql string, opts Options) (*Plan, error) {
	sel, err := parseSelect(sql)
	if err != nil {
		return nil, err
	}
	return p.Plan(sel, opts)
}

// parseSelect parses one SELECT.
func parseSelect(sql string) (*sqlparse.Select, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlparse.Select)
	if !ok {
		return nil, fmt.Errorf("core: expected a SELECT, got %T", stmt)
	}
	return sel, nil
}

// ExecuteCtx runs the plan's build steps and final select, then drops the
// plan's temporary tables. The returned result is the user-facing relation,
// its Rows boxed. Cancelling ctx stops the running step cooperatively with a
// typed CancelledError, and every step runs under the limits ctx resolves to
// (engine.EffectiveLimits) — a generated statement's are exactly those of
// the statement that generated it. Cleanup of the plan's temporary tables still
// runs after a cancelled step — a cancelled plan must not strand its temp
// tables.
func (p *Planner) ExecuteCtx(ctx context.Context, plan *Plan) (*engine.Result, error) {
	res, _, err := p.ExecuteTyped(ctx, plan, false)
	return res.Box(), err
}

// ExecuteTracedCtx runs the plan like ExecuteCtx while recording an
// execution trace: the returned root span holds one child per build step
// (named from the step's Purpose — the Vpct division join, for example, is
// root.Find("divide")), then the final select and cleanup, with engine
// statement spans and operator details nested underneath. The trace is
// returned even when execution fails, annotated with the error.
func (p *Planner) ExecuteTracedCtx(ctx context.Context, plan *Plan) (*engine.Result, *obs.Span, error) {
	res, root, err := p.ExecuteTyped(ctx, plan, true)
	return res.Box(), root, err
}

// ExecuteTyped runs the plan as ExecuteCtx does, or when traced as
// ExecuteTracedCtx does, returning its trace, but hands the result on
// unboxed: its rows stay in typed columns (engine.Result.Box).
func (p *Planner) ExecuteTyped(ctx context.Context, plan *Plan, traced bool) (*engine.Result, *obs.Span, error) {
	if !traced {
		res, err := p.executeIn(ctx, plan, nil)
		return res, nil, err
	}
	root := obs.NewSpan("plan " + plan.Class.String())
	root.AttrInt("parallelism", int64(plan.Parallelism))
	root.AttrInt("steps", int64(len(plan.Steps)))
	res, err := p.executeIn(ctx, plan, root)
	root.End()
	if err != nil {
		root.Attr("error", err.Error())
	}
	if res != nil {
		root.SetRows(-1, int64(res.Len()))
	}
	return res, root, err
}

// executeIn runs the plan's statements as generated ones (engine.Generated):
// nested in the statement ctx belongs to, if any, and never top-level.
func (p *Planner) executeIn(ctx context.Context, plan *Plan, root *obs.Span) (*engine.Result, error) {
	ctx = engine.Generated(ctx)
	res, err := p.executeStepsIn(ctx, plan, root)
	if err != nil {
		p.cleanupIn(plan, root)
		return nil, err
	}
	if plan.FinalSelect != "" {
		sp := root.NewChild("final select")
		res, err = p.Eng.ExecSQLCtxIn(ctx, plan.FinalSelect, plan.Parallelism, sp)
		sp.End()
		if err != nil {
			sp.Attr("error", err.Error())
			p.cleanupIn(plan, root)
			return nil, err
		}
		sp.SetRows(-1, int64(res.Len()))
	}
	p.cleanupIn(plan, root)
	return res, nil
}

// ExecuteStepsCtx runs only the build steps (what the paper times) and
// leaves the temporary tables in place, under a context whose limits every
// step runs under (see ExecuteCtx). Callers must CleanupPlan afterwards.
func (p *Planner) ExecuteStepsCtx(ctx context.Context, plan *Plan) (*engine.Result, error) {
	return p.executeStepsIn(engine.Generated(ctx), plan, nil)
}

func (p *Planner) executeStepsIn(ctx context.Context, plan *Plan, root *obs.Span) (*engine.Result, error) {
	mPlanExecutions.Inc()
	var last *engine.Result
	for _, s := range plan.Steps {
		if s.SQL == "" {
			continue // a marker: its cache lookup ran while planning
		}
		mPlanSteps.Inc()
		var sp *obs.Span
		if root != nil {
			sp = root.NewChild("step: " + s.Purpose)
		}
		res, err := p.Eng.ExecSQLCtxIn(ctx, s.SQL, plan.Parallelism, sp)
		sp.End()
		if err != nil {
			sp.Attr("error", err.Error())
			return nil, fmt.Errorf("core: step %q: %w", s.Purpose, err)
		}
		last = res
	}
	return last, nil
}

// CleanupPlan drops the plan's temporary tables and releases the cached
// tables it bound. A failed plan may not have created all of them; a missing
// table is no error.
func (p *Planner) CleanupPlan(plan *Plan) { p.cleanupIn(plan, nil) }

// cleanupIn is CleanupPlan under the plan's trace span, nil when untraced:
// its cleanup child counts the tables dropped. No statement runs, so a
// cancelled or timed-out plan drops what it created all the same.
func (p *Planner) cleanupIn(plan *Plan, root *obs.Span) {
	if len(plan.pins) > 0 {
		p.mu.Lock()
		for _, t := range plan.pins {
			p.releaseLocked(t)
		}
		plan.pins = nil
		p.unlock()
	}
	if len(plan.Cleanup) == 0 {
		return
	}
	sp := root.NewChild("cleanup")
	for _, t := range plan.Cleanup {
		p.Eng.DropIfExists(t)
	}
	sp.End()
	sp.SetRows(int64(len(plan.Cleanup)), -1)
}

// ----- shared generation helpers -----

// exprType infers the storage type of a scalar expression over F.
func exprType(e expr.Expr, schema storage.Schema) storage.ColumnType {
	switch n := e.(type) {
	case *expr.ColumnRef:
		if i := schema.ColumnIndex(n.Name); i >= 0 {
			return schema[i].Type
		}
		return storage.TypeFloat
	case *expr.Literal:
		switch n.Val.Kind() {
		case value.KindInt:
			return storage.TypeInt
		case value.KindString:
			return storage.TypeString
		case value.KindBool:
			return storage.TypeBool
		default:
			return storage.TypeFloat
		}
	case *expr.BinaryOp:
		if n.Op == "/" {
			return storage.TypeFloat
		}
		lt, rt := exprType(n.Left, schema), exprType(n.Right, schema)
		if lt == storage.TypeInt && rt == storage.TypeInt {
			return storage.TypeInt
		}
		return storage.TypeFloat
	case *expr.UnaryOp:
		return exprType(n.Operand, schema)
	case *expr.Case:
		for _, w := range n.Whens {
			return exprType(w.Result, schema)
		}
		return storage.TypeFloat
	default:
		return storage.TypeFloat
	}
}

// aggResultType infers the storage type of a standard aggregate over F.
func aggResultType(call *expr.AggCall, schema storage.Schema) storage.ColumnType {
	switch call.Fn {
	case expr.AggCount:
		return storage.TypeInt
	case expr.AggAvg, expr.AggVpct, expr.AggHpct:
		return storage.TypeFloat
	default: // sum, min, max follow the argument
		if call.Arg == nil {
			return storage.TypeFloat
		}
		return exprType(call.Arg, schema)
	}
}

// colDef renders one CREATE TABLE column.
func colDef(name string, t storage.ColumnType) string {
	return quoteIdent(name) + " " + t.String()
}

// quoteIdent quotes an identifier when needed: generated horizontal column
// names may contain arbitrary characters (a NULL dimension value labels its
// column "NULL") or collide with SQL keywords.
func quoteIdent(s string) string {
	simple := s != ""
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || i > 0 && c >= '0' && c <= '9') {
			simple = false
			break
		}
	}
	if simple && !sqlparse.IsKeyword(s) {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// equalityChainNullSafe renders the NULL-safe join condition
// "(a.c = b.c OR (a.c IS NULL AND b.c IS NULL)) AND …". Plain SQL equality
// never matches NULL keys, so the paper's literal join statements silently
// drop groups whose dimension value is NULL; GROUP BY, however, treats NULL
// as one group, and Vpct/Hpct inherit GROUP BY semantics. The engine
// recognizes this disjunction and evaluates it as a null-safe hash-join
// key.
func equalityChainNullSafe(a, b string, cols []string) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = nullSafeEq(a+"."+quoteIdent(c), b+"."+quoteIdent(c))
	}
	return strings.Join(parts, " AND ")
}

// nullSafeEq renders one NULL-safe equality.
func nullSafeEq(l, r string) string {
	return fmt.Sprintf("(%s = %s OR (%s IS NULL AND %s IS NULL))", l, r, l, r)
}

// literalSQL renders a value as a SQL literal.
func literalSQL(v value.Value) string {
	if v.Kind() == value.KindString {
		return "'" + strings.ReplaceAll(v.Str(), "'", "''") + "'"
	}
	return v.String()
}

// whereSuffix renders " WHERE <cond>" or "".
func whereSuffix(w expr.Expr) string {
	if w == nil {
		return ""
	}
	return " WHERE " + w.String()
}

// quoteIdents quotes every identifier of a list.
func quoteIdents(cols []string) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = quoteIdent(c)
	}
	return out
}

// joinIdents renders a comma list of identifiers.
func joinIdents(cols []string) string { return strings.Join(quoteIdents(cols), ", ") }

// selectSQL renders "SELECT sels FROM from" followed by the given clauses,
// each "" or carrying its own leading space.
func selectSQL(sels []string, from string, clauses ...string) string {
	return "SELECT " + strings.Join(sels, ", ") + " FROM " + from + strings.Join(clauses, "")
}

// whereAll renders " WHERE c1 AND c2 …", or "" without conditions.
func whereAll(conds []string) string {
	if len(conds) == 0 {
		return ""
	}
	return " WHERE " + strings.Join(conds, " AND ")
}

// qualified renders t.c identifiers as a comma list.
func qualifiedList(table string, cols []string) string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = table + "." + quoteIdent(c)
	}
	return strings.Join(out, ", ")
}

// equalityChain renders "a.c1 = b.c1 AND a.c2 = b.c2 …".
func equalityChain(a, b string, cols []string) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = a + "." + quoteIdent(c) + " = " + b + "." + quoteIdent(c)
	}
	return strings.Join(parts, " AND ")
}

// measureName names the measure column of a table keyed by keys: A, the
// paper's, unless a key column is named so (names are case-insensitive).
func measureName(keys []string) string {
	return uniqueNames(append(slices.Clone(keys), "A"))[len(keys)]
}

// uniqueNames disambiguates proposed column names, preserving order.
func uniqueNames(names []string) []string {
	seen := make(map[string]int, len(names))
	out := make([]string, len(names))
	for i, n := range names {
		key := strings.ToLower(n)
		if c, dup := seen[key]; dup {
			for {
				c++
				cand := fmt.Sprintf("%s_%d", n, c)
				if _, taken := seen[strings.ToLower(cand)]; !taken {
					seen[key] = c
					seen[strings.ToLower(cand)] = 0
					out[i] = cand
					break
				}
			}
			continue
		}
		seen[key] = 0
		out[i] = n
	}
	return out
}
