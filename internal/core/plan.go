package core

import (
	"context"
	"fmt"
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

// Plan-level metrics (see internal/obs). Steps count both SQL and native
// steps; the per-statement engine metrics accumulate underneath.
var (
	mPlanExecutions = obs.Default.Counter("core.plans")
	mPlanSteps      = obs.Default.Counter("core.steps")
)

// Step is one statement of a generated plan. Most steps are SQL text;
// summary-cache maintenance runs as native steps because it cannot be
// expressed in standard SQL.
type Step struct {
	// Purpose says what the step does, for EXPLAIN-style display.
	Purpose string
	// SQL is the statement text; empty for native steps.
	SQL string
	// native, when set, runs instead of SQL. It receives the execution
	// context (cancellation and Limits flow through it exactly as they do
	// for SQL statements), the plan's parallelism so native steps can
	// partition their scans the same way the engine's aggregation path does,
	// and the step's trace span (nil when the plan runs untraced) to hang
	// stage spans from.
	native func(ctx context.Context, eng *engine.Engine, parallelism int, span *obs.Span) error
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
	// Cleanup drops the plan's temporary tables, including the result
	// table(s).
	Cleanup []Step
	// N is the number of horizontal result columns (0 for vertical plans).
	N int
	// Parallelism is the worker count the plan's steps execute with,
	// stamped from Options.Parallelism (0 = one worker per CPU, 1 =
	// sequential, n > 1 = n workers). It never changes the generated SQL —
	// only how the engine folds each aggregation.
	Parallelism int
	// Limits is the resource budget every step executes under, stamped from
	// Options.Limits. The zero value defers to the engine-wide defaults
	// (engine.SetLimits); a non-zero value overrides them for this plan.
	Limits engine.Limits
	// cacheRegs are summary-cache entries this plan registered
	// provisionally at plan time; cleanup abandons any it never published
	// (see cacheAbandon).
	cacheRegs []*summaryEntry
	// cacheHits counts summary-cache entries this plan reused (clean or
	// delta-maintained) instead of recomputing — the per-statement signal
	// the introspection catalog surfaces in pct_stat_statements.
	cacheHits int
}

// CacheHits reports how many summaries the plan reused from the cache.
func (p *Plan) CacheHits() int { return p.cacheHits }

// CacheMisses reports how many summaries the plan had to compute and
// register (shareable aggregates that were not cached yet).
func (p *Plan) CacheMisses() int { return len(p.cacheRegs) }

// SQL renders every build step as a script.
func (p *Plan) SQL() string {
	var sb strings.Builder
	for _, s := range p.Steps {
		sb.WriteString("-- ")
		sb.WriteString(s.Purpose)
		sb.WriteString("\n")
		if s.SQL == "" {
			sb.WriteString("-- (native step)\n")
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
	// incrementally, everything else invalidates (see cache.go). Cache
	// tables are dropped by FlushSummaries, not by per-plan cleanup.
	shareSummaries bool
	summaries      map[string]*summaryEntry // structural key → entry
	summaryDrops   []string
	cstats         CacheStats
}

// NewPlanner returns a planner over the engine with default limits.
func NewPlanner(eng *engine.Engine) *Planner {
	return &Planner{Eng: eng, MaxColumns: 2048, TempPrefix: "pct"}
}

// ShareSummaries toggles the materialized summary cache. While enabled,
// plans reference cached Fk/Fj tables where a structurally identical one
// was already built by an earlier executed plan, and a DML hook installed
// on the engine keeps entries honest: appended rows are folded in
// incrementally (distributive aggregates only), any other mutation forces
// a rebuild — a cached summary is never served stale. Call FlushSummaries
// when the query batch is done. A plan's cache hit is bound at plan time:
// only one planner's cache may be live per engine.
func (p *Planner) ShareSummaries(on bool) {
	p.mu.Lock()
	p.shareSummaries = on
	if on && p.summaries == nil {
		p.summaries = make(map[string]*summaryEntry)
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

// FlushSummaries drops every table the summary cache ever registered —
// live entries and the retired copies incremental refreshes replaced.
func (p *Planner) FlushSummaries() {
	p.mu.Lock()
	drops := p.summaryDrops
	p.summaryDrops = nil
	p.summaries = map[string]*summaryEntry{}
	p.mu.Unlock()
	for _, t := range drops {
		_, _ = p.Eng.ExecSQLCtx(engine.Generated(context.Background()), "DROP TABLE IF EXISTS "+t)
	}
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

// Options selects evaluation strategies per query class.
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
	// Limits bounds what the plan's execution may consume (see
	// engine.Limits). MaxPivotColumns is additionally enforced at plan time,
	// before any step runs: a horizontal layout wider than the cap fails
	// planning with PCT204 instead of building an oversized CREATE TABLE.
	Limits engine.Limits
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
// runs over F stop on ctx's cancellation or deadline with the typed
// lifecycle errors, obey opts.Limits, and nest in the statement ctx belongs
// to, exactly as the plan's steps do under ExecuteCtx.
func (p *Planner) PlanCtx(ctx context.Context, sel *sqlparse.Select, opts Options) (*Plan, error) {
	a, err := p.analyze(sel)
	if err != nil {
		return nil, err
	}
	ctx = limitsCtx(ctx, opts.Limits)
	var plan *Plan
	switch {
	case a.hasSets:
		// ROLLUP/CUBE/GROUPING SETS plan the whole lattice from one finest
		// summary, whatever the aggregate class.
		plan, err = p.planLattice(ctx, a, opts)
	case a.class == ClassStandard:
		plan = &Plan{Class: ClassStandard, FinalSelect: sel.String()}
	case a.class == ClassVertical:
		plan, err = p.planVertical(a, opts.Vpct)
	case a.class == ClassHorizontalPct:
		plan, err = p.planHorizontalPct(ctx, a, opts.Hpct)
	case a.class == ClassHorizontalAgg:
		plan, err = p.planHorizontalAgg(ctx, a, opts.Hagg)
	default:
		return nil, fmt.Errorf("core: unplannable class %v", a.class)
	}
	if err != nil {
		return nil, err
	}
	// Parallelism and Limits are stamped centrally: they apply to every
	// class and never alter the generated SQL, only how the plan executes.
	plan.Parallelism = opts.Parallelism
	plan.Limits = opts.Limits
	// The pivot-width cap is the one limit checkable before execution: the
	// feedback pass has already counted the result columns, so an oversized
	// layout fails here instead of mid-evaluation.
	if lim := opts.Limits; lim.MaxPivotColumns > 0 && plan.N > lim.MaxPivotColumns {
		return nil, &engine.LimitError{
			PCTCode:  diag.CodePivotLimit,
			Resource: "pivot-column",
			Limit:    int64(lim.MaxPivotColumns),
		}
	}
	return plan, nil
}

// PlanSQL parses one SELECT and plans it.
func (p *Planner) PlanSQL(sql string, opts Options) (*Plan, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlparse.Select)
	if !ok {
		return nil, fmt.Errorf("core: expected a SELECT, got %T", stmt)
	}
	return p.Plan(sel, opts)
}

// ExecuteCtx runs the plan's build steps and final select, then drops the
// plan's temporary tables. The returned result is the user-facing relation,
// its Rows boxed. Cancelling ctx stops the running step cooperatively with a
// typed CancelledError, and the plan's Limits (or the engine-wide defaults)
// are enforced on every step. Cleanup of the plan's temporary tables still
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

// limitsCtx attaches a plan's Limits to ctx when set, so every statement the
// plan runs — its feedback scans, its SQL and native steps — resolves the
// same effective budget.
func limitsCtx(ctx context.Context, lim engine.Limits) context.Context {
	if lim != (engine.Limits{}) {
		return engine.WithLimits(ctx, lim)
	}
	return ctx
}

// executeIn runs the plan's statements as generated ones (engine.Generated):
// nested in the statement ctx belongs to, if any, and never top-level.
func (p *Planner) executeIn(ctx context.Context, plan *Plan, root *obs.Span) (*engine.Result, error) {
	ctx = limitsCtx(engine.Generated(ctx), plan.Limits)
	res, err := p.executeStepsIn(ctx, plan, root)
	if err != nil {
		p.cleanupIn(ctx, plan, root)
		return nil, err
	}
	if plan.FinalSelect != "" {
		sp := root.NewChild("final select")
		res, err = p.Eng.ExecSQLCtxIn(ctx, plan.FinalSelect, plan.Parallelism, sp)
		sp.End()
		if err != nil {
			sp.Attr("error", err.Error())
			p.cleanupIn(ctx, plan, root)
			return nil, err
		}
		sp.SetRows(-1, int64(res.Len()))
	}
	p.cleanupIn(ctx, plan, root)
	return res, nil
}

// ExecuteStepsCtx runs only the build steps (what the paper times) and
// leaves the temporary tables in place, under a context (see ExecuteCtx).
// Callers must CleanupPlan afterwards.
func (p *Planner) ExecuteStepsCtx(ctx context.Context, plan *Plan) (*engine.Result, error) {
	return p.executeStepsIn(limitsCtx(engine.Generated(ctx), plan.Limits), plan, nil)
}

func (p *Planner) executeStepsIn(ctx context.Context, plan *Plan, root *obs.Span) (*engine.Result, error) {
	mPlanExecutions.Inc()
	var last *engine.Result
	for i := range plan.Steps {
		s := &plan.Steps[i]
		mPlanSteps.Inc()
		var sp *obs.Span
		if root != nil {
			sp = root.NewChild("step: " + s.Purpose)
		}
		if s.native != nil {
			err := runNative(ctx, s, p.Eng, plan.Parallelism, sp)
			sp.End()
			if err != nil {
				sp.Attr("error", err.Error())
				return nil, fmt.Errorf("core: step %q: %w", s.Purpose, err)
			}
			last = &engine.Result{}
			continue
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

// runNative runs one native step under the same lifecycle a SQL statement
// gets from the engine (engine.Contain): the per-statement deadline from the
// effective Limits, and panic containment into a typed PCT206 error so a
// poisoned native step cannot kill concurrent plan executions.
func runNative(ctx context.Context, s *Step, eng *engine.Engine, parallelism int, sp *obs.Span) error {
	return eng.Contain(ctx, "step "+s.Purpose, sp, func(ctx context.Context, _ engine.Limits) error {
		return s.native(ctx, eng, parallelism, sp)
	})
}

// CleanupPlan drops the plan's temporary tables. Errors are ignored: a
// failed plan may not have created all of them.
func (p *Planner) CleanupPlan(plan *Plan) { p.CleanupPlanCtx(context.Background(), plan) }

// CleanupPlanCtx is CleanupPlan with the DROPs nested under ctx (see
// cleanupIn).
func (p *Planner) CleanupPlanCtx(ctx context.Context, plan *Plan) { p.cleanupIn(ctx, plan, nil) }

// cleanupIn drops the temporaries as generated statements under the plan
// context's values — so the DROPs of a plan run on behalf of a statement are
// statements nested in it, recorded only when it is — but not its
// cancellation: a cancelled or timed-out plan must still drop what it created.
func (p *Planner) cleanupIn(ctx context.Context, plan *Plan, root *obs.Span) {
	ctx = engine.Generated(context.WithoutCancel(ctx))
	p.cacheAbandon(ctx, plan)
	if len(plan.Cleanup) == 0 {
		return
	}
	sp := root.NewChild("cleanup")
	n := 0
	for _, s := range plan.Cleanup {
		if s.SQL != "" {
			_, _ = p.Eng.ExecSQLCtx(ctx, s.SQL)
			n++
		}
	}
	sp.End()
	sp.SetRows(int64(n), -1)
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
