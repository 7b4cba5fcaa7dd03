package pctagg

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/leakcheck"
	"repro/internal/obs"
)

// TestTraceSpansAllClosed is the trace invariant: every span in a finished
// trace has been Ended, on success, error, and cancellation paths alike. A
// zero-duration span is an early return that skipped End.
func TestTraceSpansAllClosed(t *testing.T) {
	cases := []struct {
		name    string
		ctx     func() context.Context
		sql     string
		wantErr bool
	}{
		{name: "standard", sql: "SELECT state, sum(salesAmt) FROM sales GROUP BY state"},
		{name: "vpct", sql: "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city"},
		{name: "hpct-sql", sql: "SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state"},
		// Runtime error mid-statement: ORDER BY a column that does not exist
		// fails after the scan has produced rows (the fixed sort-span path).
		{name: "sort-error", sql: "SELECT state FROM sales ORDER BY nosuch", wantErr: true},
		{
			name: "pre-cancelled",
			ctx: func() context.Context {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				return ctx
			},
			sql:     "SELECT state, sum(salesAmt) FROM sales GROUP BY state",
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := demoDB(t)
			db.SetParallelism(4)
			ctx := context.Background()
			if tc.ctx != nil {
				ctx = tc.ctx()
			}
			_, root, err := db.QueryTracedCtx(ctx, tc.sql)
			if tc.wantErr != (err != nil) {
				t.Fatalf("err = %v, wantErr = %v", err, tc.wantErr)
			}
			if root == nil {
				t.Fatal("no trace returned")
			}
			if un := root.Unclosed(); len(un) > 0 {
				names := make([]string, len(un))
				for i, s := range un {
					names[i] = s.Name
				}
				t.Errorf("unclosed spans: %v\n%s", names, root.Format())
			}
		})
	}
}

// TestQueryCtxCancellation: a cancelled context surfaces as the typed
// PCT200 error through the public Query path, and nothing leaks. Planning is
// part of the statement: the feedback scans an Hpct plan or the advisor runs
// over F stop too, so a query cancelled before it starts reads no row.
func TestQueryCtxCancellation(t *testing.T) {
	defer leakcheck.Check(t)()
	db := demoDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	scanned := obs.Default.Counter("engine.rows.scanned")
	for _, sql := range []string{
		"SELECT state, Vpct(salesAmt BY city) FROM sales GROUP BY state, city",
		"SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state",
		"EXPLAIN SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state",
	} {
		for _, auto := range []bool{false, true} {
			db.AutoStrategy(auto)
			before := scanned.Value()
			_, err := db.QueryCtx(ctx, sql)
			if err == nil {
				t.Fatalf("%s: cancelled query succeeded", sql)
			}
			var coded interface{ Code() string }
			if !errors.As(err, &coded) || coded.Code() != diag.CodeCancelled {
				t.Fatalf("%s: err = %v, want code %s", sql, err, diag.CodeCancelled)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s: cancellation cause not preserved through the public API", sql)
			}
			if d := scanned.Value() - before; d != 0 {
				t.Errorf("%s (auto=%v): the cancelled query scanned %d rows", sql, auto, d)
			}
		}
	}
}

// TestSetLimitsMaxPivotColumns: the pivot-width budget rejects a too-wide
// Hpct query at plan time with PCT204.
func TestSetLimitsMaxPivotColumns(t *testing.T) {
	db := demoDB(t)
	db.SetLimits(Limits{MaxPivotColumns: 2})
	_, err := db.Query("SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state")
	if err == nil {
		t.Fatal("4-city Hpct under MaxPivotColumns=2 succeeded")
	}
	var coded interface{ Code() string }
	if !errors.As(err, &coded) || coded.Code() != diag.CodePivotLimit {
		t.Fatalf("err = %v, want code %s", err, diag.CodePivotLimit)
	}
	// Within budget still works.
	db.SetLimits(Limits{MaxPivotColumns: 4})
	if _, err := db.Query("SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state"); err != nil {
		t.Fatalf("Hpct within pivot budget failed: %v", err)
	}
}

// TestRuntimeErrorsCounted: lifecycle errors land in the per-code
// query.errors.* counters like any other coded failure.
func TestRuntimeErrorsCounted(t *testing.T) {
	db := demoDB(t)
	before := strings.Count(db.MetricsJSON(), `"query.errors.`+diag.CodeCancelled+`"`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryCtx(ctx, "SELECT state FROM sales"); err == nil {
		t.Fatal("cancelled query succeeded")
	}
	if !strings.Contains(db.MetricsJSON(), `"query.errors.`+diag.CodeCancelled+`"`) {
		t.Fatalf("query.errors.%s not in metrics after cancelled query (before=%d)", diag.CodeCancelled, before)
	}
}

// TestSetLimitsRoundTrip pins the accessor pair.
func TestSetLimitsRoundTrip(t *testing.T) {
	db := demoDB(t)
	lim := Limits{MaxRows: 100, MaxGroups: 10, MaxPivotColumns: 3, MaxBytes: 1 << 20}
	db.SetLimits(lim)
	if got := db.Limits(); got != lim {
		t.Errorf("Limits() = %+v, want %+v", got, lim)
	}
}
