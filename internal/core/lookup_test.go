package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The summary cache does its work in the lookup, while a plan is generated:
// these tests pin what that buys — one build per key however many planners
// ask at once, a catalog that holds only what the cache serves, and a plan
// that reads the table it bound however the cache moves on.

// cacheTables lists the catalog's planner tables, sorted, and the tables the
// cache's live entries serve.
func cacheTables(p *Planner) (catalog, live []string) {
	catalog = plannerTables(p)
	slices.Sort(catalog)
	p.mu.Lock()
	for _, e := range p.summaries {
		if e.built && !e.invalid {
			live = append(live, e.table)
		}
	}
	p.mu.Unlock()
	slices.Sort(live)
	return catalog, live
}

// TestConcurrentColdRunsBuildOnce: four planners asking for the same cold
// summaries at once build each once — the first lookup of a key builds it,
// the others wait and reuse it — and leave the two tables the cache serves.
// Every plan is generated before any executes.
func TestConcurrentColdRunsBuildOnce(t *testing.T) {
	p := newSalesPlanner(t)
	p.ShareSummaries(true)
	want := runQuery(t, newSalesPlanner(t), vpctSales, DefaultOptions())
	var wg, planned sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		planned.Add(1)
		go func() {
			defer wg.Done()
			<-start
			plan, err := p.PlanSQL(vpctSales, DefaultOptions())
			planned.Done()
			if err != nil {
				errs <- err
				return
			}
			planned.Wait()
			res, err := p.ExecuteCtx(context.Background(), plan)
			if err != nil {
				errs <- err
				return
			}
			if len(res.Rows) != len(want.Rows) {
				errs <- fmt.Errorf("%d rows, want %d", len(res.Rows), len(want.Rows))
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := p.CacheStats(); s.Misses != 2 || s.Hits != 6 {
		t.Errorf("misses %d, hits %d: want 2 and 6 (Fk and Fj built once, reused by the three others)", s.Misses, s.Hits)
	}
	if catalog, live := cacheTables(p); len(catalog) != 2 || !slices.Equal(catalog, live) {
		t.Errorf("catalog holds %v, want only the two tables the cache serves (%v)", catalog, live)
	}
	p.FlushSummaries()
	if left := plannerTables(p); len(left) > 0 {
		t.Errorf("after FlushSummaries: %v left", left)
	}
}

// TestRefreshRetiresTheReplacedTable: a query after each of 400 single-row
// inserts refreshes Fk and Fj every round, and each refresh's replaced
// tables leave the catalog — it ends holding the live entries' tables only.
func TestRefreshRetiresTheReplacedTable(t *testing.T) {
	p := newSalesPlanner(t)
	p.ShareSummaries(true)
	runQuery(t, p, vpctSales, DefaultOptions())
	for i := 0; i < 400; i++ {
		mustExec(t, p.Eng, fmt.Sprintf("INSERT INTO sales VALUES (%d, 'WA', 'Seattle', %d)", 100+i, i%7))
		runQuery(t, p, vpctSales, DefaultOptions())
	}
	if s := p.CacheStats(); s.DeltaApplied < 800 {
		t.Errorf("DeltaApplied = %d, want every round refreshed incrementally", s.DeltaApplied)
	}
	if catalog, live := cacheTables(p); len(live) != 2 || !slices.Equal(catalog, live) {
		t.Errorf("catalog holds %d planner tables %v, want only the live entries' %v", len(catalog), catalog, live)
	}
}

// TestPlanReadsTheTableItBound: a plan generated before another query
// refreshes its summaries, and executed after, answers from the tables it
// bound — the pre-insert summaries — which leave the catalog with its
// cleanup, since the cache no longer serves them.
func TestPlanReadsTheTableItBound(t *testing.T) {
	p := newSalesPlanner(t)
	p.ShareSummaries(true)
	before := runQuery(t, p, vpctSales, DefaultOptions())
	bound, _ := cacheTables(p)
	early, err := p.PlanSQL(vpctSales, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, p.Eng, "INSERT INTO sales VALUES (11, 'WA', 'Seattle', 50)")
	after := runQuery(t, p, vpctSales, DefaultOptions())
	if len(after.Rows) == len(before.Rows) {
		t.Fatalf("the refreshing query missed the insert: %v", after.Rows)
	}
	got, err := p.ExecuteCtx(context.Background(), early)
	if err != nil {
		t.Fatalf("the early plan failed after the refresh: %v", err)
	}
	sameResults(t, "early plan", before, got)
	catalog, live := cacheTables(p)
	for _, b := range bound {
		if slices.Contains(catalog, b) {
			t.Errorf("%s is still in the catalog after the last plan that bound it cleaned up (catalog %v)", b, catalog)
		}
	}
	if !slices.Equal(catalog, live) {
		t.Errorf("catalog holds %v, want the live entries' %v", catalog, live)
	}
}

// TestPlanDisplayChangesNothing: planning for display reads the cache and
// leaves it, its counters and the catalog as they were — a missing summary
// renders as a private build, a cached one (current or pending) as its
// marker.
func TestPlanDisplayChangesNothing(t *testing.T) {
	p := newSalesPlanner(t)
	p.ShareSummaries(true)
	sel, err := parseSelect(vpctSales)
	if err != nil {
		t.Fatal(err)
	}
	display := func(label string, want ...string) {
		t.Helper()
		stats := p.CacheStats()
		catalog, live := cacheTables(p)
		plan, err := p.PlanDisplay(context.Background(), sel, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if !strings.Contains(plan.SQL(), w) {
				t.Errorf("%s: the script lacks %q:\n%s", label, w, plan.SQL())
			}
		}
		if s := p.CacheStats(); s != stats {
			t.Errorf("%s: cache stats %+v → %+v", label, stats, s)
		}
		if c, l := cacheTables(p); !slices.Equal(c, catalog) || !slices.Equal(l, live) {
			t.Errorf("%s: catalog %v → %v, cache %v → %v", label, catalog, c, live, l)
		}
	}
	display("cold", "-- create Fk\nCREATE TABLE pct_fk_", "-- create Fj for term 1\nCREATE TABLE pct_fj_")
	if s := p.CacheStats(); s.Misses != 0 {
		t.Fatalf("display planning built %d summaries", s.Misses)
	}
	runQuery(t, p, vpctSales, DefaultOptions())
	display("current", "-- cache: reuse shared Fk summary", "-- cache: reuse shared Fj summary")
	mustExec(t, p.Eng, "INSERT INTO sales VALUES (11, 'WA', 'Seattle', 50)")
	display("pending", "-- cache: refresh shared Fk summary", "-- cache: refresh shared Fj summary")
}

// TestCachedFjIndexedOnce: the lookup that builds or refreshes a cached Fj
// declares its subkey index, once, before any plan reads it; a plan that
// reuses it declares none, and a cached Fk, the division's probe side, gets
// none.
func TestCachedFjIndexedOnce(t *testing.T) {
	p := newSalesPlanner(t)
	p.ShareSummaries(true)
	indexes := func(label string) {
		t.Helper()
		_, live := cacheTables(p)
		for _, name := range live {
			tab, err := p.Eng.Catalog().Get(name)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			if strings.HasPrefix(name, "pct_fj_") {
				want = 1
			}
			if got := len(tab.Indexes()); got != want {
				t.Errorf("%s: %s has %d indexes, want %d", label, name, got, want)
			}
		}
	}
	runQuery(t, p, vpctSales, DefaultOptions())
	indexes("built")
	runQuery(t, p, vpctSales, DefaultOptions())
	indexes("reused")
	mustExec(t, p.Eng, "INSERT INTO sales VALUES (11, 'WA', 'Seattle', 50)")
	runQuery(t, p, vpctSales, DefaultOptions())
	indexes("refreshed")
}
