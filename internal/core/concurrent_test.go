package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/leakcheck"
)

// TestConcurrentPercentageQueries exercises the paper's future-work
// scenario: users concurrently submitting percentage queries against the
// same fact table. Each worker plans and executes its own mix of vertical,
// horizontal and Hagg queries — several with Parallelism > 1, so each
// submitter additionally fans out partitioned-aggregation goroutines inside
// its statements (the -race CI shard runs exactly this test); temp-table
// naming, catalog access, and per-statement worker pools must not collide,
// and every worker must see correct results.
func TestConcurrentPercentageQueries(t *testing.T) {
	defer leakcheck.Check(t)()
	p := newSalesPlanner(t)
	par := func(o Options, workers int) Options {
		o.Parallelism = workers
		return o
	}
	queries := []struct {
		sql  string
		opts Options
		rows int
	}{
		{vpctSales, DefaultOptions(), 4},
		{vpctSales, Options{Vpct: VpctOptions{UseUpdate: true}}, 4},
		{vpctSales, par(DefaultOptions(), 4), 4},
		{hpctDaily, DefaultOptions(), 2},
		{hpctDaily, Options{Hpct: HpctOptions{FromFV: true}}, 2},
		{hpctDaily, par(DefaultOptions(), 3), 2},
		{"SELECT store, sum(salesAmt BY dweek) FROM daily GROUP BY store",
			Options{Hagg: HaggOptions{Method: HaggSPJ}}, 2},
		{"SELECT store, sum(salesAmt BY dweek) FROM daily GROUP BY store",
			par(Options{Hagg: HaggOptions{Method: HaggCASE}}, 8), 2},
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				q := queries[(w+i)%len(queries)]
				plan, err := p.PlanSQL(q.sql, q.opts)
				if err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				res, err := p.ExecuteCtx(context.Background(), plan)
				if err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				if len(res.Rows) != q.rows {
					errs <- fmt.Errorf("worker %d: %s: %d rows, want %d", w, q.sql, len(res.Rows), q.rows)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// No temporary tables left behind.
	for _, name := range p.Eng.Catalog().Names() {
		if name != "sales" && name != "daily" {
			t.Errorf("leftover temporary %q", name)
		}
	}
}
