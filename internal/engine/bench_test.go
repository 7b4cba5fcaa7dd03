package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// Micro-benchmarks for the engine's hot operators, at a size small enough
// for quick iteration. The repository-level bench_test.go holds the
// paper-table benchmarks.

func benchEngine(b testing.TB, rows int) *Engine {
	b.Helper()
	e := New(storage.NewCatalog())
	if _, err := e.ExecSQL("CREATE TABLE f (g1 INTEGER, g2 INTEGER, d INTEGER, a INTEGER)"); err != nil {
		b.Fatal(err)
	}
	tab, _ := e.Catalog().Get("f")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < rows; i++ {
		tab.AppendRow([]value.Value{
			value.NewInt(int64(rng.Intn(100))),
			value.NewInt(int64(rng.Intn(10))),
			value.NewInt(int64(rng.Intn(7))),
			value.NewInt(int64(rng.Intn(1000))),
		})
	}
	return e
}

func benchQuery(b *testing.B, e *Engine, sql string) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExecSQL(sql); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanFilter(b *testing.B) {
	e := benchEngine(b, 100_000)
	benchQuery(b, e, "SELECT count(*) FROM f WHERE a BETWEEN 100 AND 200 AND d IN (1, 2)")
}

func BenchmarkHashAggregate(b *testing.B) {
	e := benchEngine(b, 100_000)
	benchQuery(b, e, "SELECT g1, g2, sum(a), count(*) FROM f GROUP BY g1, g2")
}

func BenchmarkHashAggregateWithCASEFanout(b *testing.B) {
	e := benchEngine(b, 100_000)
	// Seven CASE columns, the Hpct-direct shape.
	sql := "SELECT g1"
	for d := 0; d < 7; d++ {
		sql += fmt.Sprintf(", sum(CASE WHEN d = %d THEN a ELSE 0 END)", d)
	}
	sql += " FROM f GROUP BY g1"
	benchQuery(b, e, sql)
}

func BenchmarkHashJoin(b *testing.B) {
	e := benchEngine(b, 100_000)
	if _, err := e.ExecSQL("CREATE TABLE dim (g1 INTEGER, v INTEGER)"); err != nil {
		b.Fatal(err)
	}
	dim, _ := e.Catalog().Get("dim")
	for i := 0; i < 100; i++ {
		dim.AppendRow([]value.Value{value.NewInt(int64(i)), value.NewInt(int64(i * 10))})
	}
	benchQuery(b, e, "SELECT sum(dim.v) FROM f, dim WHERE f.g1 = dim.g1")
}

func BenchmarkWindowAggregate(b *testing.B) {
	e := benchEngine(b, 50_000)
	benchQuery(b, e, "SELECT DISTINCT g1, sum(a) OVER (PARTITION BY g1) FROM f")
}

func BenchmarkBulkUpdateJoined(b *testing.B) {
	e := benchEngine(b, 20_000)
	if _, err := e.ExecSQL(`CREATE TABLE tot (g1 INTEGER, s REAL);
		INSERT INTO tot SELECT g1, sum(a) FROM f GROUP BY g1;
		CREATE TABLE fk (g1 INTEGER, g2 INTEGER, s REAL);
		INSERT INTO fk SELECT g1, g2, sum(a) FROM f GROUP BY g1, g2`); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExecSQL("UPDATE fk FROM tot SET s = fk.s / tot.s WHERE fk.g1 = tot.g1"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertSelect(b *testing.B) {
	e := benchEngine(b, 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sql := fmt.Sprintf(`CREATE TABLE out%d (g1 INTEGER, s INTEGER);
			INSERT INTO out%d SELECT g1, sum(a) FROM f GROUP BY g1;
			DROP TABLE out%d`, i, i, i)
		if _, err := e.ExecSQL(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// raceEnabled is set by race_test.go under -race, where instrumentation
// changes allocation counts.
var raceEnabled bool

// TestDistinctAllocBudget is the first allocation budget of ROADMAP item
// 4(d): the Hpct feedback query's shape. DISTINCT folds straight over the
// column vectors, so the statement allocates per group and per worker, never
// per input row.
func TestDistinctAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := benchEngine(t, 100_000)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := e.ExecSQL("SELECT DISTINCT d FROM f ORDER BY d"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Errorf("SELECT DISTINCT over 100k rows made %.0f allocations, budget 1000", allocs)
	}
}

// TestHpctFoldAllocBudget is the second allocation budget of ROADMAP item
// 4(d): the statement the Hpct direct strategy generates for 50 BY values —
// sum(g2) once, one CASE cell per value of a — under GROUP BY g1, over 100 k
// rows. About 4 000 allocations lex, parse, bind (one pass, expr.Bind; SQL text
// rendered only where a duplicate call is looked up) and recognise the 50
// cells; the fold adds a handful per group per worker (100 groups, two
// workers) — one slab of accumulators, not one object per arm — and nothing
// per row: 4 354 measured, the budget 10 % above.
func TestHpctFoldAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := benchEngine(t, 100_000)
	sql := "SELECT g1"
	for v := 0; v < 50; v++ {
		sql += fmt.Sprintf(", CASE WHEN sum(g2) <> 0 THEN sum(CASE WHEN a = %d THEN g2 ELSE 0 END) / sum(g2) ELSE NULL END", v)
	}
	sql += " FROM f GROUP BY g1"
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := e.ExecSQLCtxP(context.Background(), sql, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4800 {
		t.Errorf("50-arm Hpct statement over 100k rows made %.0f allocations, budget 4800", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}

// TestInsertSelectGroupAllocBudget is the budget of a generated plan's Fk
// step: INSERT … SELECT … GROUP BY over 100 k rows and 5 000 groups on two
// workers. The group state comes from slabs that grow geometrically, the
// groups are projected through one buffer and land in the target's column
// vectors (reserved once): a few hundred allocations — map and vector
// growth, O(log groups) slabs — and none per group or per row: 401 measured,
// 50 284 before the slabs and the push path.
func TestInsertSelectGroupAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE f (g1 INTEGER, g2 INTEGER, a INTEGER); CREATE TABLE out (g1 INTEGER, g2 INTEGER, s INTEGER)")
	f, _ := e.Catalog().Get("f")
	out, _ := e.Catalog().Get("out")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		f.AppendRow([]value.Value{value.NewInt(int64(rng.Intn(100))), value.NewInt(int64(rng.Intn(50))), value.NewInt(int64(rng.Intn(1000)))})
	}
	allocs := testing.AllocsPerRun(5, func() {
		out.Truncate()
		if r, err := e.ExecSQLCtxP(context.Background(), "INSERT INTO out SELECT g1, g2, sum(a) FROM f GROUP BY g1, g2", 2); err != nil || r.Affected != 5000 {
			t.Fatal(r, err)
		}
	})
	if allocs > 600 {
		t.Errorf("INSERT … SELECT of 5000 groups made %.0f allocations, budget 600", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}

// TestOrderedSelectAllocBudget is the budget of a generated plan's final
// select: 20 k rows ordered by two of their columns. The row ids are sorted
// as one []int32 over the column vectors and only then boxed, once, into one
// slab: a constant number of allocations besides that slab — 48 measured,
// 20 059 before (one per row).
func TestOrderedSelectAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := benchEngine(t, 20_000)
	allocs := testing.AllocsPerRun(5, func() {
		if r, err := e.ExecSQL("SELECT * FROM f ORDER BY g1, a"); err != nil || len(r.Rows) != 20_000 {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Errorf("ordered SELECT of 20k rows made %.0f allocations, budget 100", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}

// TestWindowAllocBudget is the budget of the OLAP baseline's shape
// (BenchmarkWindowAggregate's statement): the 50 k input rows are materialized
// into slabs, folded by partition and gathered by probing the 100 group rows
// through one key buffer, and the DISTINCT behind dedupes the collected output
// in place — slabs, maps and groups, nothing per input row: 627 measured,
// 50 326 when each window sorted string keys of its own.
func TestWindowAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := benchEngine(t, 50_000)
	allocs := testing.AllocsPerRun(5, func() {
		if r, err := e.ExecSQL("SELECT DISTINCT g1, sum(a) OVER (PARTITION BY g1) FROM f"); err != nil || len(r.Rows) != 100 {
			t.Fatal(r, err)
		}
	})
	if allocs > 800 {
		t.Errorf("window statement over 50k rows made %.0f allocations, budget 800", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}
