package core

import (
	"context"
	"strings"
	"testing"
)

func TestLatticeFjReuse(t *testing.T) {
	p := newSalesPlanner(t)
	// Two terms: BY city (totals = state) and BY city,state (illegal; use
	// a global term). The global term's Fj can be computed from the
	// state-level Fj instead of Fk.
	q := "SELECT state, city, Vpct(salesAmt BY city), Vpct(salesAmt) FROM sales GROUP BY state, city"
	plan, err := p.PlanSQL(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	text := plan.SQL()
	if !strings.Contains(text, "lattice reuse") {
		t.Errorf("expected lattice reuse in plan:\n%s", text)
	}
	res, err := p.ExecuteCtx(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	// Results must match the non-lattice FjFromF formulation.
	p2 := newSalesPlanner(t)
	base := runQuery(t, p2, q, Options{Vpct: VpctOptions{FjFromF: true}})
	sameResults(t, "lattice", base, res)
}

func TestLatticeRespectsMeasureMismatch(t *testing.T) {
	p := newSalesPlanner(t)
	// Different measures must not share Fj tables.
	q := "SELECT state, city, Vpct(salesAmt BY city), Vpct(RID BY city) FROM sales GROUP BY state, city"
	plan, err := p.PlanSQL(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan.SQL(), "lattice reuse") {
		t.Errorf("different measures must not reuse Fj:\n%s", plan.SQL())
	}
	if _, err := p.ExecuteCtx(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
}

func TestSharedSummariesReuseFk(t *testing.T) {
	p := newSalesPlanner(t)
	p.ShareSummaries(true)
	defer p.FlushSummaries()

	q1 := "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city"
	q2 := "SELECT state, city, Vpct(salesAmt BY state) FROM sales GROUP BY state, city"

	plan1, err := p.PlanSQL(q1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res1, err := p.ExecuteCtx(context.Background(), plan1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Rows) != 4 {
		t.Fatalf("q1 rows = %v", res1.Rows)
	}

	plan2, err := p.PlanSQL(q2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The second plan must not rebuild Fk.
	for _, s := range plan2.Steps {
		if strings.Contains(s.Purpose, "fine aggregate Fk") {
			t.Errorf("second plan rebuilds Fk:\n%s", plan2.SQL())
		}
	}
	res2, err := p.ExecuteCtx(context.Background(), plan2)
	if err != nil {
		t.Fatal(err)
	}

	// Same results as an unshared planner.
	p2 := newSalesPlanner(t)
	base2 := runQuery(t, p2, q2, DefaultOptions())
	sameResults(t, "shared q2", base2, res2)

	// Flush drops the cached summaries.
	p.FlushSummaries()
	for _, name := range p.Eng.Catalog().Names() {
		if strings.HasPrefix(name, "pct_") {
			t.Errorf("leftover shared summary %q", name)
		}
	}
}

func TestSharedSummariesSkipUpdateVariant(t *testing.T) {
	p := newSalesPlanner(t)
	p.ShareSummaries(true)
	defer p.FlushSummaries()
	q := "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city"
	// UPDATE mutates Fk, so it must never enter the cache.
	plan1, err := p.PlanSQL(q, Options{Vpct: VpctOptions{UseUpdate: true}})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := p.ExecuteCtx(context.Background(), plan1)
	if err != nil {
		t.Fatal(err)
	}
	// A second INSERT-variant run still computes correct (undivided) Fk.
	plan2, err := p.PlanSQL(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := p.ExecuteCtx(context.Background(), plan2)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "update-then-insert", res1, res2)
}

func TestSharedSummariesIdenticalQueriesAgree(t *testing.T) {
	p := newSalesPlanner(t)
	p.ShareSummaries(true)
	defer p.FlushSummaries()
	q := "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city"
	var prev [][]string
	for i := 0; i < 3; i++ {
		plan, err := p.PlanSQL(q, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.ExecuteCtx(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		var cur [][]string
		for _, r := range res.Rows {
			row := make([]string, len(r))
			for j, v := range r {
				row[j] = v.String()
			}
			cur = append(cur, row)
		}
		if prev != nil {
			if len(cur) != len(prev) {
				t.Fatalf("run %d row count changed", i)
			}
			for ri := range cur {
				for ci := range cur[ri] {
					if cur[ri][ci] != prev[ri][ci] {
						t.Fatalf("run %d cell (%d,%d) changed: %s vs %s", i, ri, ci, cur[ri][ci], prev[ri][ci])
					}
				}
			}
		}
		prev = cur
	}
}
