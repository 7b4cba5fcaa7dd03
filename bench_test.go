package repro_test

// One benchmark per experiment table and strategy column, at reduced scale
// (see internal/bench.SmallConfig). Each benchmark iteration runs every
// query of its table under one strategy, so relative times across
// Benchmark*_* variants reproduce the within-table comparisons of the
// paper. cmd/pctbench prints the same data in the papers' layout at larger
// scales.

import (
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

var (
	suiteOnce sync.Once
	suite     *bench.Suite
	suiteErr  error
)

// benchSuite loads the benchmark data sets once per process. A failed
// NewSuite is remembered alongside the suite: every benchmark that needs
// the data fails loudly instead of running against a half-built suite.
func benchSuite(b *testing.B) *bench.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = bench.NewSuite(bench.SmallConfig(), nil)
	})
	if suiteErr != nil {
		b.Fatalf("bench suite: %v", suiteErr)
	}
	return suite
}

// runVpct times the eight primary queries in vertical form under opts.
func runVpct(b *testing.B, opts core.Options) {
	s := benchSuite(b)
	for _, ds := range []string{"employee", "sales"} {
		if err := s.Ensure(ds); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range s.PrimaryQueries() {
			if _, err := s.TimeQuery(q.VpctSQL(), opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// runHpct times the eight primary queries in horizontal form under opts.
func runHpct(b *testing.B, opts core.Options) {
	s := benchSuite(b)
	for _, ds := range []string{"employee", "sales"} {
		if err := s.Ensure(ds); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range s.PrimaryQueries() {
			if _, err := s.TimeQuery(q.HpctSQL(), opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// runHagg times the seventeen companion queries under opts.
func runHagg(b *testing.B, opts core.Options) {
	s := benchSuite(b)
	for _, ds := range []string{"census", "trans1", "trans2"} {
		if err := s.Ensure(ds); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range s.CompanionQueries() {
			if _, err := s.TimeQuery(q.HaggSQL(), opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---- Table 4: Vpct optimization strategies ----

func BenchmarkTable4Best(b *testing.B) {
	runVpct(b, core.Options{Vpct: core.VpctOptions{SubkeyIndexes: true}})
}

func BenchmarkTable4NoSubkeyIndexes(b *testing.B) {
	runVpct(b, core.Options{Vpct: core.VpctOptions{SubkeyIndexes: false}})
}

func BenchmarkTable4UpdateInsteadOfInsert(b *testing.B) {
	runVpct(b, core.Options{Vpct: core.VpctOptions{SubkeyIndexes: true, UseUpdate: true}})
}

func BenchmarkTable4FjFromF(b *testing.B) {
	runVpct(b, core.Options{Vpct: core.VpctOptions{SubkeyIndexes: true, FjFromF: true}})
}

// ---- Table 5: Hpct strategies ----

func BenchmarkTable5FromF(b *testing.B) {
	runHpct(b, core.Options{})
}

func BenchmarkTable5FromFV(b *testing.B) {
	runHpct(b, core.Options{Hpct: core.HpctOptions{FromFV: true}})
}

// ---- Table 6: percentage aggregations vs OLAP extensions ----

func BenchmarkTable6Vpct(b *testing.B) {
	runVpct(b, core.Options{Vpct: core.VpctOptions{SubkeyIndexes: true}})
}

func BenchmarkTable6Hpct(b *testing.B) {
	s := benchSuite(b)
	for _, ds := range []string{"employee", "sales"} {
		if err := s.Ensure(ds); err != nil {
			b.Fatal(err)
		}
	}
	queries := s.PrimaryQueries()
	advised := make([]core.Options, len(queries))
	for i, q := range queries {
		var err error
		if advised[i], err = s.AdviseHpct(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for qi, q := range queries {
			if _, err := s.TimeQuery(q.HpctSQL(), advised[qi]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTable6OLAP(b *testing.B) {
	s := benchSuite(b)
	for _, ds := range []string{"employee", "sales"} {
		if err := s.Ensure(ds); err != nil {
			b.Fatal(err)
		}
	}
	queries := make([]string, 0, 8)
	for _, q := range s.PrimaryQueries() {
		sql, err := s.OLAPSQL(q)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, sql)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sql := range queries {
			if _, err := s.TimeSQL(sql); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---- DMKD Table 3: horizontal aggregation strategies ----

func BenchmarkTableH3SPJFromF(b *testing.B) {
	runHagg(b, core.Options{Hagg: core.HaggOptions{Method: core.HaggSPJ}})
}

func BenchmarkTableH3SPJFromFV(b *testing.B) {
	runHagg(b, core.Options{Hagg: core.HaggOptions{Method: core.HaggSPJ, FromFV: true}})
}

func BenchmarkTableH3CASEFromF(b *testing.B) {
	runHagg(b, core.Options{Hagg: core.HaggOptions{Method: core.HaggCASE}})
}

func BenchmarkTableH3CASEFromFV(b *testing.B) {
	runHagg(b, core.Options{Hagg: core.HaggOptions{Method: core.HaggCASE, FromFV: true}})
}

// ---- Parallel partitioned aggregation: P=1 vs P=GOMAXPROCS ----

func BenchmarkParallelVpctSequential(b *testing.B) {
	runVpct(b, core.Options{Vpct: core.VpctOptions{SubkeyIndexes: true}, Parallelism: 1})
}

func BenchmarkParallelVpctGOMAXPROCS(b *testing.B) {
	runVpct(b, core.Options{Vpct: core.VpctOptions{SubkeyIndexes: true}, Parallelism: 0})
}

func BenchmarkParallelHpctSequential(b *testing.B) {
	runHpct(b, core.Options{Parallelism: 1})
}

func BenchmarkParallelHpctGOMAXPROCS(b *testing.B) {
	runHpct(b, core.Options{Parallelism: 0})
}

// ---- Summary cache: steady-state hits and incremental delta refresh ----

// cacheBenchSuite loads a private suite: the cache benchmarks enable
// sharing and mutate sales, which must not leak into the shared suite the
// other benchmarks time.
func cacheBenchSuite(b *testing.B) *bench.Suite {
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

// ---- Ablation: CASE arm by arm vs dimension dispatch ----

// runAblation times the four sales Hpct queries on one worker, so the
// columns differ only in how a row finds its result column.
func runAblation(b *testing.B, fold bool) {
	s := benchSuite(b)
	if err := s.Ensure("sales"); err != nil {
		b.Fatal(err)
	}
	defer s.Eng.SetBatch(s.Eng.BatchEnabled())
	s.Eng.SetBatch(fold)
	opts := core.Options{Parallelism: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range s.PrimaryQueries()[4:] {
			if _, err := s.TimeQuery(q.HpctSQL(), opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationHpctCASEReference folds the CASE plan arm by arm (the
// reference fold): the paper's O(N) comparisons per row.
func BenchmarkAblationHpctCASEReference(b *testing.B) { runAblation(b, false) }

// BenchmarkAblationHpctCASE is the same plan under the fold operator's
// dimension dispatch: one lookup per row.
func BenchmarkAblationHpctCASE(b *testing.B) { runAblation(b, true) }
