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
// BenchmarkTable/h3/SPJ/FV, BenchmarkTable/shared/shared_Fk. Everything the
// papers' timings exclude — loading, the advisor, the OLAP rewrite, warming
// shared summaries — happens before the timer starts.
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

// warmCache loads a private suite — the cache benchmarks enable sharing and
// mutate sales, which must not leak into the suite the tables are timed on —
// turns the summary cache on and builds the benchmark query's summaries. It
// returns the suite and the query, which from here on is served from them.
func warmCache(b testing.TB) (*bench.Suite, func()) {
	b.Helper()
	s, err := bench.NewSuite(bench.SmallConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Ensure("sales"); err != nil {
		b.Fatal(err)
	}
	s.Planner.ShareSummaries(true)
	b.Cleanup(func() { s.Planner.ShareSummaries(false) })
	opts := core.Options{Vpct: core.VpctOptions{SubkeyIndexes: true}}
	query := func() {
		const sql = "SELECT dweek, monthNo, dept, Vpct(salesAmt BY dept) FROM sales GROUP BY dweek, monthNo, dept"
		if _, err := s.TimeQuery(sql, opts); err != nil {
			b.Fatal(err)
		}
	}
	query()
	return s, query
}

// appendSale appends one row through the engine, so the DML hook records the
// delta the next query refreshes from.
func appendSale(b testing.TB, s *bench.Suite) {
	if _, err := s.Eng.ExecSQL("INSERT INTO sales VALUES (0,0,1,1,0,0,0,1,10)"); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCacheHit times the steady state: the summaries are built once
// before the timer, so every iteration serves both Fk and Fj as clean hits.
func BenchmarkCacheHit(b *testing.B) {
	_, query := warmCache(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query()
	}
}

// BenchmarkDeltaApply times incremental maintenance: each iteration
// appends one row and re-runs the query, so the refresh rolls up one row and
// merges it instead of rescanning sales.
func BenchmarkDeltaApply(b *testing.B) {
	s, query := warmCache(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		appendSale(b, s)
		query()
	}
}

// raceEnabled is set by race_test.go under -race, where instrumentation
// changes allocation counts.
var raceEnabled bool

// TestCacheHitAllocBudget is the budget of BenchmarkCacheHit's iteration, the
// fixed cost of a percentage statement whose aggregation is already done:
// plan, two clean hits, the division, the final select and the drops — ten
// engine statements, none of which renders its SQL text or names a span when
// nothing is tracing, and the division and the final select move columns. 425
// measured (492 when they pushed rows, 547 when every untraced statement
// rendered stmt.String() for a nil span).
func TestCacheHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s, query := warmCache(t)
	misses := s.Planner.CacheStats().Misses
	allocs := testing.AllocsPerRun(5, query)
	if got := s.Planner.CacheStats().Misses; got != misses {
		t.Fatalf("%d cache misses in 6 runs: the budget did not measure the hit path", got-misses)
	}
	if allocs > 467 {
		t.Errorf("cached query made %.0f allocations, budget 467", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}

// TestDeltaApplyAllocBudget is the budget of BenchmarkDeltaApply's iteration:
// one appended row, then the cached 4 200-group query. The refresh is three
// statements over column vectors — copy the cached rows, roll the delta up
// behind them, re-aggregate the union by the summary's own grouping — so it
// allocates per slab and per doubling of the fold's arrays, never per cached
// row: 1 449 measured (1 668 before the copy and the final select moved
// columns, 1 804 with a Go map of group objects per fold, 6 882 when the merge
// boxed every cached row and keyed it by string).
func TestDeltaApplyAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s, query := warmCache(t)
	before := s.Planner.CacheStats().DeltaApplied
	allocs := testing.AllocsPerRun(5, func() {
		appendSale(t, s)
		query()
	})
	if applied := s.Planner.CacheStats().DeltaApplied - before; applied < 6 {
		t.Fatalf("%d incremental refreshes in 6 runs: the budget did not measure the delta path", applied)
	}
	if allocs > 1594 {
		t.Errorf("append + cached query made %.0f allocations, budget 1594", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}
