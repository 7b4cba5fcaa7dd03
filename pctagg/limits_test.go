package pctagg

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/workload"
)

// A statement's limits are resolved once, by the engine, from its context
// (engine.WithLimits, which the server stamps for each tenant) or else from
// SetLimits; a percentage query's plan and every statement it generates run
// under exactly the limits of the statement that generated them.

const hpctDaily = "SELECT store, Hpct(salesAmt BY dweek) FROM daily GROUP BY store"

// dailyDB holds the demo tables; daily's dweek holds seven values, so an
// Hpct by dweek has seven columns.
func dailyDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	if _, err := db.Exec(workload.DemoSQL); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestContextLimitsRejectWidePivot: a context's MaxPivotColumns rejects a
// 7-column Hpct at plan time, however the statement reaches the planner.
func TestContextLimitsRejectWidePivot(t *testing.T) {
	db := dailyDB(t)
	ctx := engine.WithLimits(context.Background(), Limits{MaxPivotColumns: 3})
	for _, sql := range []string{hpctDaily, "EXPLAIN " + hpctDaily, "EXPLAIN ANALYZE " + hpctDaily} {
		if _, err := db.QueryCtx(ctx, sql); diag.CodeOf(err) != diag.CodePivotLimit {
			t.Errorf("%s under a context MaxPivotColumns=3: err = %v, want %s", sql, err, diag.CodePivotLimit)
		}
	}
	// A context's limits replace the engine-wide ones: a looser context cap
	// admits what the engine-wide one refuses.
	db.SetLimits(Limits{MaxPivotColumns: 3})
	if _, err := db.QueryCtx(engine.WithLimits(context.Background(), Limits{MaxPivotColumns: 7}), hpctDaily); err != nil {
		t.Errorf("7-column Hpct under a context MaxPivotColumns=7: %v", err)
	}
}

// TestContextLimitsGovernGeneratedSteps: a context's MaxRows stops a Vpct at
// its first generated step that materializes rows (the Fk aggregate), though
// the engine-wide limits would let it run.
func TestContextLimitsGovernGeneratedSteps(t *testing.T) {
	db := dailyDB(t)
	db.SetLimits(Limits{MaxRows: 1 << 40})
	ctx := engine.WithLimits(context.Background(), Limits{MaxRows: 2})
	if _, err := db.QueryCtx(ctx, "SELECT store, dweek FROM daily"); diag.CodeOf(err) != diag.CodeRowLimit {
		t.Errorf("plain SELECT under a context MaxRows=2: err = %v, want %s", err, diag.CodeRowLimit)
	}
	_, err := db.QueryCtx(ctx, "SELECT store, dweek, Vpct(salesAmt BY dweek) FROM daily GROUP BY store, dweek")
	if diag.CodeOf(err) != diag.CodeRowLimit || !strings.Contains(err.Error(), `step "compute fine aggregate Fk from F"`) {
		t.Errorf("Vpct under a context MaxRows=2: err = %v, want %s from its Fk step", err, diag.CodeRowLimit)
	}
}

// TestParallelismIsTheEngines: the parallelism a query plans and runs with is
// the engine's, however it was set.
func TestParallelismIsTheEngines(t *testing.T) {
	db := demoDB(t)
	db.Engine().SetParallelism(1)
	if got := db.Parallelism(); got != 1 {
		t.Errorf("Parallelism() = %d after Engine().SetParallelism(1)", got)
	}
	_, root, err := db.QueryTracedCtx(context.Background(), "SELECT state, Vpct(salesAmt) FROM sales GROUP BY state")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	root.Walk(func(s *obs.Span) {
		for _, a := range s.Attrs {
			if a.Key == "parallelism" {
				got = append(got, s.Name+": "+a.Value)
			}
		}
	})
	if len(got) != 1 || !strings.HasSuffix(got[0], ": 1") {
		t.Errorf("plan span parallelism = %v, want one span reading 1\n%s", got, root.Format())
	}
}

// TestSetParallelismWhileQueriesRun: changing the parallelism races with no
// query in flight (run it with -race).
func TestSetParallelismWhileQueriesRun(t *testing.T) {
	db := demoDB(t)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := db.Query("SELECT state, Vpct(salesAmt) FROM sales GROUP BY state"); err != nil {
					t.Error(err)
					return
				}
				if _, err := db.Explain("SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		db.SetParallelism(i % 3)
		_ = db.Parallelism()
	}
	wg.Wait()
}
