package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/sqlparse"
)

// Tests of the Rewriter hook: a SELECT the engine has no operator for runs
// through the installed rewriter inside the lifecycle of the statement that
// carries it, and what the rewriter runs under its context is nested in that
// statement.

// fakeRewriter evaluates every SELECT it is handed by running one fixed
// statement under the context it gets, and reports 2 cache hits and 1 miss.
type fakeRewriter struct {
	e       *Engine
	nested  string
	panics  bool
	before  func() // runs first, when set
	seenErr error  // ctx.Err() as the rewriter saw it
	calls   int
}

func (f *fakeRewriter) Select(ctx context.Context, _ *sqlparse.Select, par int, parent *obs.Span) (*Result, int, int, error) {
	f.calls++
	if f.before != nil {
		f.before()
	}
	f.seenErr = ctx.Err()
	sp := parent.NewChild("fake plan")
	if f.panics {
		panic("rewriter fault") // leaves sp open for the containment to close
	}
	res, err := f.e.ExecSQLCtxIn(ctx, f.nested, par, sp)
	sp.End()
	return res, 2, 1, err
}

func (f *fakeRewriter) Explain(ctx context.Context, ex *sqlparse.Explain, par int, _ *obs.Span) (*Result, error) {
	if _, err := f.e.ExecSQLCtxP(ctx, f.nested, par); err != nil {
		return nil, err
	}
	return PlanResult([]string{"fake plan", "of " + ex.Query.String()}), nil
}

const rewrittenSQL = "SELECT state, Vpct(salesAmt) FROM sales GROUP BY state"

// TestIntrospectRewriterPanicContained: a panic inside the rewriter is the
// statement's PCT206, with every span closed and nothing left active.
func TestIntrospectRewriterPanicContained(t *testing.T) {
	defer leakcheck.Check(t)()
	e := newIntroEngine(t)
	e.SetRewriter(&fakeRewriter{e: e, nested: "SELECT count(*) FROM sales", panics: true})
	parent := obs.NewSpan("test")
	_, err := e.ExecuteCtxIn(context.Background(), parseOne(t, rewrittenSQL), 1, parent)
	parent.End()
	if got := diag.CodeOf(err); got != diag.CodePanic {
		t.Fatalf("err = %v (code %q), want %s", err, got, diag.CodePanic)
	}
	if open := parent.Unclosed(); len(open) > 0 {
		t.Errorf("unclosed spans %v:\n%s", open, parent.Format())
	}
	if n := len(e.ActiveStatements()); n != 0 {
		t.Errorf("%d statements still active after the contained panic", n)
	}
	recs := e.FlightRecords()
	if len(recs) != 1 || recs[0].ErrCode != diag.CodePanic {
		t.Errorf("flight records = %+v, want the one failed statement with %s", recs, diag.CodePanic)
	}
}

// TestIntrospectRewriterSeesCancellation: the rewriter's context is the
// statement's, so a caller's cancel reaches it and what it runs.
func TestIntrospectRewriterSeesCancellation(t *testing.T) {
	defer leakcheck.Check(t)()
	e := newIntroEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := &fakeRewriter{e: e, nested: "SELECT count(*) FROM sales", before: cancel}
	e.SetRewriter(f)
	_, err := e.ExecuteCtxIn(ctx, parseOne(t, rewrittenSQL), 1, nil)
	if !errors.Is(f.seenErr, context.Canceled) {
		t.Errorf("rewriter saw ctx.Err() = %v, want context.Canceled", f.seenErr)
	}
	if got := diag.CodeOf(err); got != diag.CodeCancelled {
		t.Errorf("err = %v (code %q), want %s", err, got, diag.CodeCancelled)
	}
}

// TestIntrospectRewriterNestedStatements: the statement a caller sent is
// recorded top = 1 with the rewriter's cache counts, what the rewriter ran
// top = 0; under a statement the self-observation guard skips, nothing the
// rewriter runs is recorded. EXPLAIN routes to the rewriter the same way.
func TestIntrospectRewriterNestedStatements(t *testing.T) {
	e := newIntroEngine(t)
	const nested = "SELECT state, sum(salesAmt) FROM sales GROUP BY state"
	f := &fakeRewriter{e: e, nested: nested}
	e.SetRewriter(f)
	r := mustExec(t, e, rewrittenSQL)
	if len(r.Rows) != 2 {
		t.Fatalf("rewritten SELECT returned %v, want the nested statement's 2 rows", r.Rows)
	}
	stats := "SELECT query, top, calls, cache_hits, cache_misses FROM pct_stat_statements ORDER BY top"
	want := "[[SELECT state, sum(salesAmt) FROM sales GROUP BY state 0 1 0 0] [SELECT state, vpct(salesAmt) FROM sales GROUP BY state 1 1 2 1]]"
	if got := fmtRows(mustExec(t, e, stats)); got != want {
		t.Errorf("pct_stat_statements = %s, want %s", got, want)
	}

	mustExec(t, e, "SELECT query, Vpct(calls) FROM pct_stat_statements GROUP BY query")
	if f.calls != 2 {
		t.Fatalf("rewriter called %d times, want 2", f.calls)
	}
	if got := fmtRows(mustExec(t, e, stats)); got != want {
		t.Errorf("a rewritten statement over pct_stat_statements recorded its nested work: %s", got)
	}

	text := traceText(t, e, "EXPLAIN "+rewrittenSQL)
	if !strings.HasPrefix(text, "fake plan\nof SELECT state, vpct(salesAmt)") {
		t.Errorf("EXPLAIN of a rewritten SELECT = %q, want the rewriter's lines", text)
	}
}

// TestRewriterAbsentKeepsEngineErrors: with no rewriter installed, the SELECTs
// a rewriter would evaluate fail with the engine's own errors.
func TestRewriterAbsentKeepsEngineErrors(t *testing.T) {
	e := newTestEngine(t)
	for sql, frag := range map[string]string{
		rewrittenSQL: "engine: aggregate vpct must be rewritten before execution",
		"SELECT state, Vpct(salesAmt BY city) FROM sales GROUP BY state, city": "carries a BY list; percentage/horizontal aggregations must be rewritten first (see the core package)",
		"SELECT state, sum(salesAmt) FROM sales GROUP BY ROLLUP(state)":        "engine: GROUP BY ROLLUP must be rewritten first (see the core package)",
	} {
		wantErr(t, e, sql, frag)
	}
}

// fmtRows renders result rows for comparison.
func fmtRows(r *Result) string {
	out := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		for _, v := range row {
			out[i] = append(out[i], v.String())
		}
	}
	return fmt.Sprint(out)
}
