package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sqlparse"
)

// cleanupQueries are the plan shapes whose temporaries cleanup drops: a
// default Vpct with a BY list, an Hpct, an Hagg SPJ, a missing-rows (post)
// Vpct and a 3-D CUBE.
var cleanupQueries = []struct {
	name string
	sql  string
	opts Options
}{
	{"vpct", vpctSales, DefaultOptions()},
	{"hpct", hpctDaily, DefaultOptions()},
	{"hagg_spj", "SELECT store, sum(salesAmt BY dweek) FROM daily GROUP BY store", Options{Hagg: HaggOptions{Method: HaggSPJ}}},
	{"vpct_missing_post", "SELECT store, dweek, Vpct(salesAmt BY dweek) FROM daily GROUP BY store, dweek",
		Options{Vpct: VpctOptions{SubkeyIndexes: true, MissingRows: MissingPost}}},
	{"cube_3d", "SELECT state, city, RID, Vpct(salesAmt), GROUPING(state, city, RID) FROM sales GROUP BY CUBE(state, city, RID)", DefaultOptions()},
}

// cancelOnInsert is a DML hook that cancels when an INSERT into table
// commits.
type cancelOnInsert struct {
	table  string
	cancel context.CancelFunc
}

func (h cancelOnInsert) OnInsert(table string, _, _ int, _, _ int64) {
	if table == h.table {
		h.cancel()
	}
}

func (cancelOnInsert) OnMutate(string, *engine.Mutation) {}

// plannerTables lists the catalog's tables the planner named.
func plannerTables(p *Planner) []string {
	var out []string
	for _, n := range p.Eng.Catalog().Names() {
		if strings.HasPrefix(n, p.TempPrefix+"_") {
			out = append(out, n)
		}
	}
	return out
}

// TestCleanupRunsNoStatement: a plan's temporaries are dropped by name, so
// executing a plan runs its SQL steps and its final select as statements —
// each one parse — and nothing for the tables it registers; and no planner
// table is left in the catalog after a success, a failing step, a cancel, a
// plan that is only rendered, or FlushSummaries.
func TestCleanupRunsNoStatement(t *testing.T) {
	statements := obs.Default.Counter("engine.statements")
	for _, q := range cleanupQueries {
		t.Run(q.name, func(t *testing.T) {
			p := newSalesPlanner(t)
			plan, err := p.PlanSQL(q.sql, q.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(plan.Cleanup) == 0 {
				t.Fatal("the plan registers no temporary")
			}
			want := int64(1) // the final select
			for _, s := range plan.Steps {
				if s.SQL != "" {
					stmts, err := sqlparse.ParseAll(s.SQL) // a step may hold a script
					if err != nil {
						t.Fatal(err)
					}
					want += int64(len(stmts))
				}
			}
			before := statements.Value()
			if _, err := p.ExecuteCtx(context.Background(), plan); err != nil {
				t.Fatal(err)
			}
			if got := statements.Value() - before; got != want {
				t.Errorf("%d statements ran, want %d: the %d of the steps and the final select, none for the %d temporaries",
					got, want, want-1, len(plan.Cleanup))
			}
			if left := plannerTables(p); len(left) > 0 {
				t.Errorf("after a success: %v left", left)
			}

			// A failing last step, after every temporary exists.
			plan, err = p.PlanSQL(q.sql, q.opts)
			if err != nil {
				t.Fatal(err)
			}
			plan.Steps = append(plan.Steps, Step{Purpose: "fail", SQL: "SELECT nope FROM missing"})
			if _, err := p.ExecuteCtx(context.Background(), plan); err == nil {
				t.Fatal("the failing step succeeded")
			}
			if left := plannerTables(p); len(left) > 0 {
				t.Errorf("after a failing step: %v left", left)
			}

			// A cancel halfway through the steps: the DML hook hears the
			// middle temporary's INSERT commit, and the next step stops.
			plan, err = p.PlanSQL(q.sql, q.opts)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			p.Eng.SetDMLHook(cancelOnInsert{table: plan.Cleanup[len(plan.Cleanup)/2], cancel: cancel})
			_, err = p.ExecuteCtx(ctx, plan)
			p.Eng.SetDMLHook(nil)
			if !errors.As(err, new(*engine.CancelledError)) {
				t.Fatalf("err = %v, want a cancellation", err)
			}
			if left := plannerTables(p); len(left) > 0 {
				t.Errorf("after a cancel: %v left", left)
			}

			// EXPLAIN: planned for display and never run — with the summary
			// cache on, which display planning reads and leaves alone.
			p.ShareSummaries(true)
			sel, err := parseSelect(q.sql)
			if err != nil {
				t.Fatal(err)
			}
			plan, err = p.PlanDisplay(context.Background(), sel, q.opts)
			if err != nil {
				t.Fatal(err)
			}
			p.CleanupPlan(plan)
			if left := plannerTables(p); len(left) > 0 {
				t.Errorf("after an EXPLAIN: %v left", left)
			}

			// FlushSummaries drops whatever the summary cache built.
			runQuery(t, p, q.sql, q.opts)
			runQuery(t, p, q.sql, q.opts)
			p.FlushSummaries()
			if left := plannerTables(p); len(left) > 0 {
				t.Errorf("after FlushSummaries: %v left", left)
			}
		})
	}
}
