package engine

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/diag"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Tests of the statement lifecycle's contract (runStatement): every
// statement completes exactly once, on one clock, and everything under it —
// EXPLAIN ANALYZE's select included — runs under the statement's governor.

// TestExplainAnalyzeGoverned: EXPLAIN ANALYZE of a standard SELECT obeys the
// limits, the deadline and the cancellation the bare SELECT obeys, with the
// same typed error, and leaves no span open.
func TestExplainAnalyzeGoverned(t *testing.T) {
	defer leakcheck.Check(t)()
	const nRows, after = 5000, 3
	e := New(storage.NewCatalog())
	e.Catalog().Put(bigGroupTable(t, nRows))
	e.EnableIntrospection(IntrospectionConfig{})
	chaos.Enable()
	defer chaos.Disable()

	const ordered = "SELECT g, v FROM big ORDER BY v"
	const grouped = "SELECT g, sum(v) FROM big GROUP BY g"
	cases := []struct {
		name  string
		sql   string
		ctx   func() context.Context
		delay time.Duration // a latency fault at the fold's workers (P=2), so the deadline lands mid-statement
		code  string
	}{
		{"max rows", ordered, func() context.Context {
			return WithLimits(context.Background(), Limits{MaxRows: 10})
		}, 0, diag.CodeRowLimit},
		{"max groups", grouped, func() context.Context {
			return WithLimits(context.Background(), Limits{MaxGroups: 3})
		}, 0, diag.CodeGroupLimit},
		{"cancelled", "SELECT sum(v) FROM big", func() context.Context {
			return &countdownCtx{Context: context.Background(), after: after}
		}, 0, diag.CodeCancelled},
		{"timeout", grouped, func() context.Context {
			return WithLimits(context.Background(), Limits{Timeout: 5 * time.Millisecond})
		}, 50 * time.Millisecond, diag.CodeDeadline},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(sql string) (*obs.Span, error) {
				par := 1
				if tc.delay > 0 {
					par = 2
					chaos.Arm(chaos.AggWorker, chaos.Fault{Delay: tc.delay})
					defer chaos.Disarm(chaos.AggWorker)
				}
				parent := obs.NewSpan("test")
				_, err := e.ExecSQLCtxIn(tc.ctx(), sql, par, parent)
				parent.End()
				return parent, err
			}
			_, bare := run(tc.sql)
			if got := diag.CodeOf(bare); got != tc.code {
				t.Fatalf("bare SELECT: err = %v (code %q), want %s", bare, got, tc.code)
			}
			parent, err := run("EXPLAIN ANALYZE " + tc.sql)
			if got := diag.CodeOf(err); got != tc.code {
				t.Fatalf("EXPLAIN ANALYZE: err = %v (code %q), want %s like the bare SELECT", err, got, tc.code)
			}
			if open := parent.Unclosed(); len(open) > 0 {
				t.Errorf("unclosed spans %v:\n%s", open, parent.Format())
			}
			if tc.code == diag.CodeCancelled {
				// Every check consumes one countdown call and the scan checks
				// once per stride, so it stops within one stride of the cancel
				// (the bound TestCancelBoundedRows puts on the bare fold).
				recs := e.FlightRecords()
				last := recs[len(recs)-1]
				if last.Scanned == 0 || last.Scanned > (after+1)*govStride || last.Scanned >= nRows {
					t.Errorf("cancelled EXPLAIN ANALYZE scanned %d of %d rows, want within (0, %d]", last.Scanned, nRows, (after+1)*govStride)
				}
			}
		})
	}
	// Inheriting the record must not cost EXPLAIN ANALYZE its operator
	// actuals: a recorded, untraced statement's span is the lite one.
	if text := traceText(t, e, "EXPLAIN ANALYZE "+grouped); !strings.Contains(text, "Scan big (5000 rows) (actual rows=5000") {
		t.Errorf("recorded EXPLAIN ANALYZE lost its operator actuals:\n%s", text)
	}
}

// TestStatementCompletesOnce: with every consumer on — introspection, a slow
// log at threshold 0, a parent span — each outcome moves engine.statements by
// exactly one, writes one slow-log line, one flight record and one statement
// statistics observation, leaves activity empty, bumps its outcome counter,
// and the flight record, the span and the histogram carry the same reading.
func TestStatementCompletesOnce(t *testing.T) {
	defer leakcheck.Check(t)()
	e := New(storage.NewCatalog())
	e.Catalog().Put(bigGroupTable(t, 5000))
	e.EnableIntrospection(IntrospectionConfig{})
	var slow bytes.Buffer
	e.SetSlowQueryLog(&slow, 0)
	chaos.Enable()
	defer chaos.Disable()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	const grouped = "SELECT g, sum(v) FROM big GROUP BY g"
	cases := []struct {
		name    string
		sql     string
		ctx     context.Context
		panics  bool
		code    string
		outcome *obs.Counter // the outcome counter this case must bump, if any
	}{
		{"success", grouped, context.Background(), false, "", nil},
		{"bind error", "SELECT nope FROM big", context.Background(), false, "error", nil},
		{"cancelled", grouped, cancelled, false, diag.CodeCancelled, mCancelled},
		{"limit exceeded", grouped, WithLimits(context.Background(), Limits{MaxGroups: 3}), false, diag.CodeGroupLimit, mLimitsExceeded},
		{"contained panic", grouped, context.Background(), true, diag.CodePanic, mPanics},
	}
	outcomes := []*obs.Counter{mCancelled, mLimitsExceeded, mPanics}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.panics {
				// One worker of the fan-out panics: one contained panic.
				chaos.Arm(chaos.AggWorker, chaos.Fault{Panic: "chaos-panic", Worker: 1})
				defer chaos.Disarm(chaos.AggWorker)
			}
			slow.Reset()
			stmts, errs := mStatements.Value(), mErrors.Value()
			histN, histSum := mStatementNs.Count(), mStatementNs.Sum()
			flights, calls := len(e.FlightRecords()), statCalls(e)
			before := make([]int64, len(outcomes))
			for i, c := range outcomes {
				before[i] = c.Value()
			}

			parent := obs.NewSpan("test")
			_, err := e.ExecuteCtxIn(tc.ctx, parseOne(t, tc.sql), 2, parent)
			parent.End()

			if got := diag.CodeOf(err); (err != nil) != (tc.code != "") || (got != "" && got != tc.code) {
				t.Fatalf("err = %v (code %q), want code %q", err, got, tc.code)
			}
			if got := mStatements.Value() - stmts; got != 1 {
				t.Errorf("engine.statements moved by %d, want 1", got)
			}
			wantErrs := int64(0)
			if tc.code != "" {
				wantErrs = 1
			}
			if got := mErrors.Value() - errs; got != wantErrs {
				t.Errorf("engine.errors moved by %d, want %d", got, wantErrs)
			}
			for i, c := range outcomes {
				want := int64(0)
				if c == tc.outcome {
					want = 1
				}
				if got := c.Value() - before[i]; got != want {
					t.Errorf("outcome counter %d moved by %d, want %d", i, got, want)
				}
			}
			if got := strings.Count(slow.String(), "slow query ("); got != 1 || !strings.Contains(slow.String(), tc.sql) {
				t.Errorf("slow log has %d lines for the statement, want 1: %q", got, slow.String())
			}
			if got := statCalls(e) - calls; got != 1 {
				t.Errorf("statement statistics observed %d calls, want 1", got)
			}
			if got := len(e.ActiveStatements()); got != 0 {
				t.Errorf("%d statements still active", got)
			}
			recs := e.FlightRecords()
			if len(recs)-flights != 1 {
				t.Fatalf("flight recorder gained %d records, want 1", len(recs)-flights)
			}
			rec := recs[len(recs)-1]
			if rec.ErrCode != tc.code {
				t.Errorf("flight record code = %q, want %q", rec.ErrCode, tc.code)
			}
			if len(parent.Children) != 1 {
				t.Fatalf("parent has %d statement spans, want 1", len(parent.Children))
			}
			if open := parent.Unclosed(); len(open) > 0 {
				t.Errorf("unclosed spans %v:\n%s", open, parent.Format())
			}
			// One clock: the three consumers that keep a duration kept the
			// same one.
			span := parent.Children[0].Duration
			if rec.DurNs != int64(span) {
				t.Errorf("flight record DurNs = %d, span duration = %d; want one reading", rec.DurNs, span)
			}
			if n, sum := mStatementNs.Count()-histN, mStatementNs.Sum()-histSum; n != 1 || sum != int64(span) {
				t.Errorf("histogram gained %d observations summing %d, want 1 of %d", n, sum, span)
			}
		})
	}
}

// statCalls sums the calls column of the engine-level fingerprint entries.
func statCalls(e *Engine) int64 {
	var n int64
	for _, s := range e.StatementStats().Snapshot() {
		n += s.Calls
	}
	return n
}
