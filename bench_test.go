package repro_test

// One sub-benchmark per experiment table and strategy column, at reduced
// scale (see internal/bench.SmallConfig). Each benchmark iteration runs every
// query of its table under one strategy, so relative times across the
// columns of a table reproduce the within-table comparisons of the paper.
// cmd/pctbench prints the same data in the papers' layout at larger scales.

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

// BenchmarkTable runs the experiments bench.Experiments declares, one
// sub-benchmark per table and strategy column: BenchmarkTable/6/OLAP,
// BenchmarkTable/h3/SPJ/FV, BenchmarkTable/ablation/CASE_dispatched.
// Everything the papers' timings exclude — loading, the advisor, the OLAP
// rewrite, engine toggles, warming shared summaries — happens before the
// timer starts.
func BenchmarkTable(b *testing.B) {
	s, err := bench.NewSuite(bench.SmallConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, exp := range bench.Experiments() {
		for _, col := range exp.Columns {
			b.Run(exp.Key+"/"+col.Header, func(b *testing.B) {
				cells, restore, err := s.Prepare(col, exp.Rows)
				if err != nil {
					b.Fatal(err)
				}
				defer restore()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, cell := range cells {
						if _, err := cell(); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// ---- Summary cache: steady-state hits and incremental delta refresh ----

// cacheBenchSuite loads a private suite: the cache benchmarks enable
// sharing and mutate sales, which must not leak into the suite the tables
// are timed on.
func cacheBenchSuite(b testing.TB) *bench.Suite {
	b.Helper()
	s, err := bench.NewSuite(bench.SmallConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Ensure("sales"); err != nil {
		b.Fatal(err)
	}
	return s
}

const cacheBenchQuery = "SELECT dweek, monthNo, dept, Vpct(salesAmt BY dept) FROM sales GROUP BY dweek, monthNo, dept"

// BenchmarkCacheHit times the steady state: the summaries are built once
// before the timer, so every iteration serves both Fk and Fj as clean hits.
func BenchmarkCacheHit(b *testing.B) {
	s := cacheBenchSuite(b)
	opts := core.Options{Vpct: core.VpctOptions{SubkeyIndexes: true}}
	s.Planner.ShareSummaries(true)
	defer s.Planner.ShareSummaries(false)
	if _, err := s.TimeQuery(cacheBenchQuery, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TimeQuery(cacheBenchQuery, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaApply times incremental maintenance: each iteration
// appends one row through the engine (the DML hook records the delta) and
// re-runs the query, so the refresh rolls up one row and merges it instead
// of rescanning sales.
func BenchmarkDeltaApply(b *testing.B) {
	s := cacheBenchSuite(b)
	opts := core.Options{Vpct: core.VpctOptions{SubkeyIndexes: true}}
	s.Planner.ShareSummaries(true)
	defer s.Planner.ShareSummaries(false)
	if _, err := s.TimeQuery(cacheBenchQuery, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Eng.ExecSQL("INSERT INTO sales VALUES (0,0,1,1,0,0,0,1,10)"); err != nil {
			b.Fatal(err)
		}
		if _, err := s.TimeQuery(cacheBenchQuery, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// raceEnabled is set by race_test.go under -race, where instrumentation
// changes allocation counts.
var raceEnabled bool

// TestDeltaApplyAllocBudget is the budget of BenchmarkDeltaApply's iteration:
// one appended row, then the cached 4 200-group query. The refresh is three
// statements over column vectors — copy the cached rows, roll the delta up
// behind them, re-aggregate the union by the summary's own grouping — so it
// allocates per slab and per map growth, never per cached row: 1 972
// measured, 6 882 when the merge boxed every cached row and keyed it by string.
func TestDeltaApplyAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := cacheBenchSuite(t)
	opts := core.Options{Vpct: core.VpctOptions{SubkeyIndexes: true}}
	s.Planner.ShareSummaries(true)
	defer s.Planner.ShareSummaries(false)
	if _, err := s.TimeQuery(cacheBenchQuery, opts); err != nil {
		t.Fatal(err)
	}
	before := s.Planner.CacheStats().DeltaApplied
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := s.Eng.ExecSQL("INSERT INTO sales VALUES (0,0,1,1,0,0,0,1,10)"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.TimeQuery(cacheBenchQuery, opts); err != nil {
			t.Fatal(err)
		}
	})
	if applied := s.Planner.CacheStats().DeltaApplied - before; applied < 6 {
		t.Fatalf("%d incremental refreshes in 6 runs: the budget did not measure the delta path", applied)
	}
	if allocs > 3000 {
		t.Errorf("append + cached query made %.0f allocations, budget 3000", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}
