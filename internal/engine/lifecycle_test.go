package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/diag"
	"repro/internal/expr"
	"repro/internal/leakcheck"
	"repro/internal/storage"
	"repro/internal/value"
)

// countdownCtx is a deterministic cancellation source: Err returns nil for
// the first `after` calls, context.Canceled afterwards. It makes
// cancellation latency measurable in governor strides instead of wall time.
type countdownCtx struct {
	context.Context
	mu    sync.Mutex
	calls int
	after int
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// bigGroupTable builds an n-row table with a small group column.
func bigGroupTable(t *testing.T, n int) *storage.Table {
	t.Helper()
	tab, err := storage.NewTable("big", storage.Schema{
		{Name: "g", Type: storage.TypeInt},
		{Name: "v", Type: storage.TypeInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	row := make([]value.Value, 2)
	for i := 0; i < n; i++ {
		row[0] = value.NewInt(int64(i % 8))
		row[1] = value.NewInt(int64(i))
		if _, err := tab.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// TestCancelBoundedRows is the cancellation-latency contract: a cancelled
// 1M-row aggregation must stop within a bounded number of rows after the
// cancel, not fold to completion. The countdown context cancels after a
// fixed number of governor checks; the scanned counter then bounds how far
// the scan ran past it in units of govStride.
func TestCancelBoundedRows(t *testing.T) {
	const nRows = 1_000_000
	const after = 20
	tab := bigGroupTable(t, nRows)

	ctx := &countdownCtx{Context: context.Background(), after: after}
	gov := newGovernor(ctx, Limits{})
	scan := newTableScan(tab, "big")
	scan.gov = gov

	keyExpr, err := expr.Bind(expr.QCol("", "g"), expr.SchemaResolver([]string{"g", "v"}))
	if err != nil {
		t.Fatal(err)
	}
	argExpr, err := expr.Bind(expr.QCol("", "v"), expr.SchemaResolver([]string{"g", "v"}))
	if err != nil {
		t.Fatal(err)
	}
	specs := []aggSpec{{call: &expr.AggCall{Fn: expr.AggSum, Arg: expr.QCol("", "v")}, arg: argExpr}}

	_, err = hashAggregate(scan, []expr.Expr{keyExpr}, specs, execCtx{par: 1, gov: gov, batch: true}, &collector{})
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CancelledError", err)
	}
	if ce.Code() != diag.CodeCancelled {
		t.Errorf("code = %s, want %s", ce.Code(), diag.CodeCancelled)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false; cause must be preserved")
	}
	// Every check consumes one countdown call, and checks happen at least
	// once per govStride scanned rows — so the scan cannot have run more
	// than (after+1) strides before seeing the cancellation.
	scanned := gov.scanned()
	if scanned == 0 {
		t.Fatal("scan never charged the governor")
	}
	if max := int64(after+1) * govStride; scanned > max {
		t.Errorf("scanned %d rows after cancel budget, want <= %d (bounded latency)", scanned, max)
	}
	if scanned >= nRows {
		t.Errorf("scan ran to completion (%d rows) despite cancellation", scanned)
	}
}

// TestDeadlineStopsLargeAggregation exercises the public path: a
// per-statement deadline from Limits stops a 1M-row parallel aggregation
// with the typed PCT201 error, well before the statement could finish.
func TestDeadlineStopsLargeAggregation(t *testing.T) {
	defer leakcheck.Check(t)()
	e := New(storage.NewCatalog())
	mustExec(t, e, `CREATE TABLE big (g INTEGER, v INTEGER)`)
	tab, err := e.Catalog().Get("big")
	if err != nil {
		t.Fatal(err)
	}
	row := make([]value.Value, 2)
	for i := 0; i < 1_000_000; i++ {
		row[0] = value.NewInt(int64(i % 64))
		row[1] = value.NewInt(int64(i))
		if _, err := tab.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	ctx := WithLimits(context.Background(), Limits{Timeout: time.Millisecond})
	_, err = e.ExecSQLCtxP(ctx, "SELECT g, sum(v) FROM big GROUP BY g", 4)
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CancelledError", err)
	}
	if ce.Code() != diag.CodeDeadline {
		t.Errorf("code = %s, want %s (deadline)", ce.Code(), diag.CodeDeadline)
	}
}

// TestLimitErrorsCarryCodes drives each budget to its typed error.
func TestLimitErrorsCarryCodes(t *testing.T) {
	cases := []struct {
		name string
		lim  Limits
		sql  string
		code string
	}{
		{"rows", Limits{MaxRows: 5}, "SELECT * FROM sales", diag.CodeRowLimit},
		{"groups", Limits{MaxGroups: 2}, "SELECT state, city, sum(salesAmt) FROM sales GROUP BY state, city", diag.CodeGroupLimit},
		{"bytes", Limits{MaxBytes: 16}, "SELECT * FROM sales", diag.CodeByteBudget},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t)
			e.SetLimits(tc.lim)
			_, err := e.ExecSQL(tc.sql)
			var le *LimitError
			if !errors.As(err, &le) {
				t.Fatalf("err = %v, want LimitError", err)
			}
			if le.Code() != tc.code {
				t.Errorf("code = %s, want %s", le.Code(), tc.code)
			}
		})
	}
}

// TestContextLimitsOverrideEngineDefaults: WithLimits beats SetLimits.
func TestContextLimitsOverrideEngineDefaults(t *testing.T) {
	e := newTestEngine(t)
	e.SetLimits(Limits{MaxRows: 1})
	ctx := WithLimits(context.Background(), Limits{}) // unlimited for this call
	if _, err := e.ExecSQLCtx(ctx, "SELECT * FROM sales"); err != nil {
		t.Fatalf("context override did not lift the engine default: %v", err)
	}
	if _, err := e.ExecSQL("SELECT * FROM sales"); err == nil {
		t.Fatal("engine default limit not enforced without an override")
	}
}

// TestPreCancelledContext: a context dead before dispatch still yields the
// typed error and runs nothing.
func TestPreCancelledContext(t *testing.T) {
	e := newTestEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.ExecSQLCtx(ctx, "SELECT * FROM sales")
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CancelledError", err)
	}
}

// TestCancelledDMLLeavesTableUntouched: cancellation mid-INSERT…SELECT must
// roll the target back to its pre-statement row count (statement atomicity).
func TestCancelledDMLLeavesTableUntouched(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, `CREATE TABLE dst (state VARCHAR, total INTEGER)`)
	mustExec(t, e, `INSERT INTO dst VALUES ('seed', 0)`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.ExecSQLCtx(ctx, "INSERT INTO dst SELECT state, sum(salesAmt) FROM sales GROUP BY state")
	if err == nil {
		t.Fatal("cancelled INSERT succeeded")
	}
	tab, err := e.Catalog().Get("dst")
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 1 {
		t.Errorf("dst has %d rows after cancelled INSERT, want 1 (atomic rollback)", tab.NumRows())
	}
}

// TestWorkerErrorDeterministic: the fan-out reports the lowest partition's
// real error even though siblings are cancelled racing it, and a sibling
// cancellation only when nothing else failed.
func TestWorkerErrorDeterministic(t *testing.T) {
	defer leakcheck.Check(t)()
	run := func(fail map[int]error) (*foldPart, error) {
		part, _, err := foldPartitions(context.Background(), nil, 3, 30,
			func(ctx context.Context, lo, hi int) (*foldPart, error) {
				if err := fail[lo/10]; err != nil {
					return nil, err
				}
				return &foldPart{op: &foldOp{}, consumed: int64(hi - lo)}, nil
			})
		return part, err
	}
	cancelled := &CancelledError{cause: context.Canceled}
	_, err := run(map[int]error{0: cancelled, 1: fmt.Errorf("boom in partition 2"), 2: fmt.Errorf("boom in partition 3")})
	if err == nil || !strings.Contains(err.Error(), "boom in partition 2") {
		t.Errorf("foldPartitions = %v, want the lowest partition's real error", err)
	}
	var ce *CancelledError
	if _, err := run(map[int]error{0: cancelled}); !errors.As(err, &ce) {
		t.Errorf("foldPartitions = %v, want the cancellation when nothing else failed", err)
	}
	part, err := run(nil)
	if err != nil || part.consumed != 30 {
		t.Errorf("foldPartitions = %+v, %v; want all 30 rows merged", part, err)
	}
}

// TestFoldLimitsParity: a fold over a stored table never materializes its
// input, so MaxRows/MaxBytes treat it the same at P=1 and P=8 — computed
// arguments included — while a join-fed fold still pays for the copy it
// needs to fan out, with the same typed codes as ever.
func TestFoldLimitsParity(t *testing.T) {
	defer leakcheck.Check(t)()
	e := New(storage.NewCatalog())
	tab := bigGroupTable(t, 3000)
	e.Catalog().Put(tab)
	mustExec(t, e, `CREATE TABLE dim (g INTEGER, w INTEGER);
		INSERT INTO dim VALUES (0,1),(1,2),(2,3),(3,4),(4,5),(5,6),(6,7),(7,8)`)
	tight := WithLimits(context.Background(), Limits{MaxRows: 100, MaxBytes: 4096})

	const bare = "SELECT g, sum(v * 2 + g), count(*) FROM big WHERE v >= 0 GROUP BY g"
	ref, err := e.ExecSQLCtxP(tight, bare, 1)
	if err != nil {
		t.Fatalf("P=1 under tight limits: %v", err)
	}
	got, err := e.ExecSQLCtxP(tight, bare, 8)
	if err != nil {
		t.Fatalf("P=8 under tight limits: %v (a stored table must not be materialized)", err)
	}
	sameResult(t, "bare-table fold P=8 vs P=1", ref, got)

	const joined = "SELECT a.g, sum(a.v * b.w) FROM big a, dim b WHERE a.g = b.g GROUP BY a.g"
	if _, err := e.ExecSQLCtxP(tight, joined, 1); err != nil {
		t.Fatalf("join-fed fold at P=1 drains its input and must fit: %v", err)
	}
	for _, tc := range []struct {
		lim  Limits
		code string
	}{
		{Limits{MaxRows: 100}, diag.CodeRowLimit},
		{Limits{MaxBytes: 4096}, diag.CodeByteBudget},
	} {
		_, err := e.ExecSQLCtxP(WithLimits(context.Background(), tc.lim), joined, 8)
		var le *LimitError
		if !errors.As(err, &le) || le.Code() != tc.code {
			t.Errorf("join-fed fold at P=8 under %+v: err = %v, want %s", tc.lim, err, tc.code)
		}
	}
}
