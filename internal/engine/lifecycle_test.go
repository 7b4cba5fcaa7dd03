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
	"repro/internal/sqlparse"
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
// the scan ran past it in units of govStride. A nested loop gets the same
// bound on its inner iterations: three outer rows against a 1M-row right
// table stop within one stride of pairs per check, not after a whole pass.
func TestCancelBoundedRows(t *testing.T) {
	const nRows = 1_000_000
	const after = 20
	tab := bigGroupTable(t, nRows)

	t.Run("fold", func(t *testing.T) {
		ctx := &countdownCtx{Context: context.Background(), after: after}
		gov := newGovernor(ctx, Limits{})
		keyExpr, err := expr.Bind(expr.QCol("", "g"), expr.SchemaResolver([]string{"g", "v"}))
		if err != nil {
			t.Fatal(err)
		}
		argExpr, err := expr.Bind(expr.QCol("", "v"), expr.SchemaResolver([]string{"g", "v"}))
		if err != nil {
			t.Fatal(err)
		}
		specs := []aggSpec{{call: &expr.AggCall{Fn: expr.AggSum, Arg: expr.QCol("", "v")}, arg: argExpr}}

		_, err = hashAggregate(newTableScan(tab, "big"), []expr.Expr{keyExpr}, specs, execCtx{par: 1, gov: gov}, &collector{})
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
	})

	t.Run("nested loop", func(t *testing.T) {
		e := New(storage.NewCatalog())
		e.Catalog().Put(tab)
		mustExec(t, e, "CREATE TABLE l (k INTEGER); INSERT INTO l VALUES (1), (2), (3)")
		sel, ok := parseOne(t, "SELECT l.k, big.v FROM l, big").(*sqlparse.Select)
		if !ok {
			t.Fatal("not a SELECT")
		}
		in, _, err := e.buildFrom(sel)
		if err != nil {
			t.Fatal(err)
		}
		p := newPipeline(in)
		if len(p.stages) != 1 || p.stages[0].loop == nil {
			t.Fatal("the cross join is not a nested loop")
		}
		gov := newGovernor(&countdownCtx{Context: context.Background(), after: after}, Limits{})
		if err := p.open(gov); err != nil {
			t.Fatalf("open: %v", err)
		}
		pairs := 0
		var r pipeRun
		r.init(p, gov, sinkFunc(func(b *tupleBatch) error { pairs += b.rows(); return nil }), nil)
		err = r.run(0, p.count())
		r.finish()
		var ce *CancelledError
		if !errors.As(err, &ce) {
			t.Fatalf("err = %v, want CancelledError", err)
		}
		if max := (after + 1) * govStride; pairs > max {
			t.Errorf("handed on %d pairs, want <= %d (one stride of inner iterations per check)", pairs, max)
		}
	})
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
		part, _, err := foldPartitions(context.Background(), nil, 3, 30, func() error { return nil },
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

// TestFoldLimitsParity: a fold never copies its input to fan out — a stored
// table's workers read ranges of it, a join's share its build side — so
// MaxRows/MaxBytes treat it the same at P=1 and P=8, computed arguments, a
// hash join and a nested loop included.
func TestFoldLimitsParity(t *testing.T) {
	defer leakcheck.Check(t)()
	e := New(storage.NewCatalog())
	tab := bigGroupTable(t, 3000)
	e.Catalog().Put(tab)
	mustExec(t, e, `CREATE TABLE dim (g INTEGER, w INTEGER);
		INSERT INTO dim VALUES (0,1),(1,2),(2,3),(3,4),(4,5),(5,6),(6,7),(7,8)`)
	tight := WithLimits(context.Background(), Limits{MaxRows: 100, MaxBytes: 4096})
	for _, q := range []struct{ name, sql string }{
		{"bare-table fold", "SELECT g, sum(v * 2 + g), count(*) FROM big WHERE v >= 0 GROUP BY g"},
		{"join-fed fold", "SELECT a.g, sum(a.v * b.w) FROM big a, dim b WHERE a.g = b.g GROUP BY a.g"},
		{"nested-loop-fed fold", "SELECT a.g, sum(a.v * b.w) FROM big a JOIN dim b ON a.g <= b.g AND a.g >= b.g GROUP BY a.g"},
	} {
		ref, err := e.ExecSQLCtxP(tight, q.sql, 1)
		if err != nil {
			t.Fatalf("%s at P=1 under tight limits: %v", q.name, err)
		}
		got, err := e.ExecSQLCtxP(tight, q.sql, 8)
		if err != nil {
			t.Fatalf("%s at P=8 under tight limits: %v (the input must not be materialized)", q.name, err)
		}
		sameResult(t, q.name+" P=8 vs P=1", ref, got)
	}
}
