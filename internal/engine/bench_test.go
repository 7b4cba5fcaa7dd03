package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
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
	benchQuery(b, benchEngine(b, 100_000), caseFanoutSQL())
}

// caseFanoutSQL is the CASE fan-out benchmark's statement over benchEngine's
// table: seven CASE columns, the Hpct-direct shape.
func caseFanoutSQL() string {
	sql := "SELECT g1"
	for d := 0; d < 7; d++ {
		sql += fmt.Sprintf(", sum(CASE WHEN d = %d THEN a ELSE 0 END)", d)
	}
	return sql + " FROM f GROUP BY g1"
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

// salesEngine is hot_mix's update target at scale: rows × 9 INTEGER columns,
// the first a unique id.
func salesEngine(b testing.TB, rows int) *Engine {
	b.Helper()
	e := New(storage.NewCatalog())
	mustExec(b, e, "CREATE TABLE sales (id INTEGER, c1 INTEGER, c2 INTEGER, c3 INTEGER, c4 INTEGER, c5 INTEGER, c6 INTEGER, c7 INTEGER, amt INTEGER)")
	tab, _ := e.Catalog().Get("sales")
	rng := rand.New(rand.NewSource(1))
	row := make([]value.Value, 9)
	for i := 0; i < rows; i++ {
		row[0] = value.NewInt(int64(i + 1))
		for c := 1; c < 9; c++ {
			row[c] = value.NewInt(int64(rng.Intn(100)))
		}
		tab.AppendRow(row)
	}
	return e
}

// BenchmarkPointUpdate is hot_mix's update_sales: one cell of 300 000 rows,
// found by the selection kernels and written in place.
func BenchmarkPointUpdate(b *testing.B) {
	e := salesEngine(b, 300_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r, err := e.ExecSQL(fmt.Sprintf("UPDATE sales SET amt = %d WHERE id = %d", i%500, 1+i*7919%300_000)); err != nil || r.Affected != 1 {
			b.Fatal(r, err)
		}
	}
}

// BenchmarkDeleteSelective deletes 1 % of 300 000 rows: select, gather the
// kept runs column by column, swap. The table is reloaded off the clock.
func BenchmarkDeleteSelective(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := salesEngine(b, 300_000)
		b.StartTimer()
		if r, err := e.ExecSQL("DELETE FROM sales WHERE c1 = 7"); err != nil || r.Affected < 2000 {
			b.Fatal(r, err)
		}
	}
}

// TestPointUpdateAllocBudget: a point UPDATE on a warm engine allocates for
// the statement — lex, parse, bind, one row id, one undo cell, the row view —
// and nothing per row scanned or per column vector, so a table four times as
// long costs the same: 36 measured at both sizes, the budget 10 % above.
func TestPointUpdateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var got [2]int
	for i, rows := range []int{25_000, 100_000} {
		e := salesEngine(t, rows)
		mustExec(t, e, "UPDATE sales SET amt = 1 WHERE id = 1") // warm the selection pool
		got[i] = int(testing.AllocsPerRun(5, func() {
			if r, err := e.ExecSQL("UPDATE sales SET amt = amt + 1 WHERE id = 20000"); err != nil || r.Affected != 1 {
				t.Fatal(r, err)
			}
		}))
	}
	if got[0] != got[1] || got[1] > 40 {
		t.Errorf("point UPDATE made %d allocations over 25k rows and %d over 100k, budget 40 at any size", got[0], got[1])
	}
	t.Logf("%d allocations", got[1])
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
// column vectors, so the statement allocates per worker and per doubling of
// the group table's arrays, never per input row; the ORDER BY sorts the
// groups as collected columns and gathers them into the result: 46 measured
// with d's 8 cells on the direct route (47 on the hash route, 42 when the
// groups were collected as boxed rows, 60 with a Go map per partition), the
// budget what it was.
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
	if allocs > 47 {
		t.Errorf("SELECT DISTINCT over 100k rows made %.0f allocations, budget 47", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}

// TestHpctFoldAllocBudget is the second allocation budget of ROADMAP item
// 4(d): the statement the Hpct direct strategy generates for 50 BY values —
// sum(g2) once, one CASE cell per value of a — under GROUP BY g1, over 100 k
// rows. About 4 000 allocations lex, parse, bind (one pass, expr.Bind; SQL text
// rendered only where a duplicate call is looked up) and recognise the 50
// cells; the fold adds a few dozen per worker — the group table's arrays and
// the two cell arrays all 51 aggregates share, doubling to 100 groups — and
// the groups leave it as a batch of columns, one vector per aggregate and one
// per guarded division, and nothing per group, per arm or per row: 4 400
// measured with g1 on the direct route (4 419 on the hash route, 4 312 when
// each group was boxed into a row), the budget what it was.
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
	if allocs > 4743 {
		t.Errorf("50-arm Hpct statement over 100k rows made %.0f allocations, budget 4743", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}

// TestInsertSelectGroupAllocBudget is the budget of a generated plan's Fk
// step: INSERT … SELECT … GROUP BY over 100 k rows and 5 000 groups on two
// workers. The group state is flat arrays that double, the groups are
// projected through one buffer and land in the target's column vectors
// (reserved once) a batch of columns at a time: O(log groups) allocations per
// array and none per group or per row: 224 measured (401 with a Go map and
// slabs of group objects per partition, 50 284 before the slabs and the push
// path).
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
	if allocs > 246 {
		t.Errorf("INSERT … SELECT of 5000 groups made %.0f allocations, budget 246", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}

// TestOrderedSelectAllocBudget is the budget of a generated plan's final
// select: 20 k rows ordered by two of their columns. The row ids are sorted
// by their packed keys, the columns gathered a batch at a time and only then
// boxed, once, into one slab: a constant number of allocations besides that
// slab — 57 measured, 20 059 before (one per row).
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
	if allocs > 63 {
		t.Errorf("ordered SELECT of 20k rows made %.0f allocations, budget 63", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}

// TestFilteredOrderByAllocBudget: the same select behind a WHERE sorts the
// selected row ids — no hidden sort column, no boxed row before the result
// slab — so its allocations are as constant: 71 measured for 2 000 of 20 000
// rows, where collecting the passing rows made one per row.
func TestFilteredOrderByAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := benchEngine(t, 20_000)
	allocs := testing.AllocsPerRun(5, func() {
		if r, err := e.ExecSQL("SELECT g1, a FROM f WHERE g2 = 3 ORDER BY d, a"); err != nil || len(r.Rows) < 1_500 {
			t.Fatal(err)
		}
	})
	if allocs > 78 {
		t.Errorf("filtered ordered SELECT made %.0f allocations, budget 78", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}

// TestWindowAllocBudget is the budget of the OLAP baseline's shape
// (BenchmarkWindowAggregate's statement): the 50 k input rows are held as id
// tuples and folded by partition, each batch's partition results are gathered
// by the group ids its keys look up in the fold's own group table, and the
// DISTINCT behind dedupes the collected columns by position — id vectors,
// the group tables' arrays and the collected columns doubling, nothing per
// input row or per group: 185 measured (376 with a probe map over boxed group
// rows, 627 with group objects, 50 326 when each window sorted string keys of
// its own), the budget 10 % above.
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
	if allocs > 204 {
		t.Errorf("window statement over 50k rows made %.0f allocations, budget 204", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}

// TestValuesInsertAllocBudget is the budget of hot_mix's insert_sales: 100
// rows of 9 INTEGERs by INSERT … VALUES. Parsing makes about 2 500 of its
// allocations; the rows are evaluated into one boxed vector per column and
// appended as one batch, with no row slice per row: 3 460 measured (3 525
// when every row was boxed and appended by itself), the budget the latter.
func TestValuesInsertAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := salesEngine(t, 1000)
	sales, _ := e.Catalog().Get("sales")
	rng := rand.New(rand.NewSource(2))
	var sb strings.Builder
	sb.WriteString("INSERT INTO sales VALUES ")
	for r := 0; r < 100; r++ {
		if r > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d", 1001+r)
		for c := 1; c < 9; c++ {
			fmt.Fprintf(&sb, ", %d", rng.Intn(100))
		}
		sb.WriteByte(')')
	}
	sql := sb.String()
	allocs := testing.AllocsPerRun(5, func() {
		sales.TruncateTo(1000)
		if r, err := e.ExecSQL(sql); err != nil || r.Affected != 100 {
			t.Fatal(r, err)
		}
	})
	if allocs > 3525 {
		t.Errorf("100-row INSERT … VALUES made %.0f allocations, budget 3525", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}

// TestOrderedJoinInsertAllocBudget is the budget of a summary-lattice node's
// insert: 200 rows of a nested loop against a one-row totals table, the
// guarded division, ORDER BY 1. The rows are collected as typed columns,
// their positions sorted and gathered a batch at a time into the target:
// 107 measured (108 when they were collected as boxed rows and appended one
// by one), the budget the latter.
func TestOrderedJoinInsertAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := New(storage.NewCatalog())
	mustExec(t, e, `CREATE TABLE fs (g INTEGER, m INTEGER); CREATE TABLE fj (x REAL);
		CREATE TABLE fc (g INTEGER, p REAL, lvl INTEGER); INSERT INTO fj VALUES (250.0)`)
	fs, _ := e.Catalog().Get("fs")
	fc, _ := e.Catalog().Get("fc")
	for i := 0; i < 200; i++ {
		fs.AppendRow([]value.Value{value.NewInt(int64(i * 7919 % 200)), value.NewInt(int64(i))})
	}
	allocs := testing.AllocsPerRun(5, func() {
		fc.TruncateTo(0)
		if r, err := e.ExecSQL("INSERT INTO fc SELECT fs.g, CASE WHEN fj.x <> 0 THEN fs.m / fj.x ELSE NULL END, 0 FROM fs, fj ORDER BY 1"); err != nil || r.Affected != 200 {
			t.Fatal(r, err)
		}
	})
	if allocs > 108 {
		t.Errorf("ordered 200-row join insert made %.0f allocations, budget 108", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}

// manyGroupsEngine is vpct_q8's Fk step: 300 K rows whose four INTEGER keys
// (7 × 12 × 50 × 10) make 42 000 groups — the shape where the group table,
// not the kernels, is the cost.
func manyGroupsEngine(b testing.TB) *Engine {
	b.Helper()
	e := New(storage.NewCatalog())
	if _, err := e.ExecSQL("CREATE TABLE f (k1 INTEGER, k2 INTEGER, k3 INTEGER, k4 INTEGER, a INTEGER)"); err != nil {
		b.Fatal(err)
	}
	tab, _ := e.Catalog().Get("f")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300_000; i++ {
		tab.AppendRow([]value.Value{
			value.NewInt(int64(rng.Intn(7))), value.NewInt(int64(rng.Intn(12))),
			value.NewInt(int64(rng.Intn(50))), value.NewInt(int64(rng.Intn(10))),
			value.NewInt(int64(rng.Intn(1000))),
		})
	}
	return e
}

const manyGroupsSQL = "SELECT k1, k2, k3, k4, sum(a) FROM f GROUP BY k1, k2, k3, k4"

func BenchmarkHashAggregateManyGroups(b *testing.B) {
	e := manyGroupsEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExecSQLCtxP(context.Background(), manyGroupsSQL, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFoldManyGroupsAllocBudget is the budget of BenchmarkHashAggregateManyGroups'
// statement: 42 000 groups on two workers. A group is an id — its key in the
// group table's flat arrays, its sum one cell — and every array doubles, so
// the fold allocates O(log groups) times and the statement's bytes are the
// result rows plus at most twice the final state. The four keys' 8 × 13 × 51
// × 11 cells take the direct route: one directory a worker, allocated once,
// where the hash route's index and hashes doubled their way to 42 000 keys.
// 230 allocations and 20.9 MB measured, against 281–283 and 23.6 MB on the
// hash route and 930 and 48.1 MB when each partition kept a Go map of group
// objects; the budgets are 10 % above.
func TestFoldManyGroupsAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := manyGroupsEngine(t)
	run := func() {
		if r, err := e.ExecSQLCtxP(context.Background(), manyGroupsSQL, 2); err != nil || len(r.Rows) < 41_000 {
			t.Fatal(len(r.Rows), err)
		}
	}
	allocs := testing.AllocsPerRun(5, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	if allocs > 253 {
		t.Errorf("42 000-group fold made %.0f allocations, budget 253", allocs)
	}
	if bytes > 23_000_000 {
		t.Errorf("42 000-group fold allocated %d bytes, budget 23 000 000", bytes)
	}
	t.Logf("%.0f allocations, %d bytes", allocs, bytes)
}

// TestJoinIndexBuildAllocBudget is the budget of building a join index over
// 40 000 rows and 84 keys — q8's Fk on its common subkey — on each route: an
// INTEGER key takes the direct route, a REAL one the hash route. The keys are
// read a batch at a time into a group table whose arrays double, and the rows
// land by a counting sort in one rows array, so the build allocates O(1)
// times, none a key or a row: 18 measured on the direct route and 27 on the
// hash route, where a Go map of row lists made one a key; the budgets are
// 10 % above.
func TestJoinIndexBuildAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tab, err := storage.NewTable("fk", storage.Schema{{Name: "k", Type: storage.TypeInt}, {Name: "f", Type: storage.TypeFloat}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40_000; i++ {
		tab.AppendRow([]value.Value{value.NewInt(int64(i % 84)), value.NewFloat(float64(i%84) / 2)})
	}
	for _, c := range []struct {
		col    int
		route  string
		budget float64
	}{{0, "direct", 20}, {1, "hash", 30}} {
		var ix *joinIndex
		allocs := testing.AllocsPerRun(5, func() {
			if ix, err = buildIndex(tab, []int{c.col}, nil); err != nil || ix.tab.len() != 84 || len(ix.rows) != 40_000 {
				t.Fatal(err)
			}
		})
		if ix.tab.route() != c.route || allocs > c.budget {
			t.Errorf("a %s-route index of 40 000 rows over 84 keys made %.0f allocations, budget %.0f", ix.tab.route(), allocs, c.budget)
		}
		t.Logf("%s route: %.0f allocations", c.route, allocs)
	}
}

// fkEngine is vpct_q8 after its fold: Fk, the 42 000 groups of
// manyGroupsEngine's keys in first-appearance order with their sums, and Fj,
// the 84 totals over the common subkey (k1, k2), both indexed on it as the
// generated plan indexes them; FV is the division's empty target.
func fkEngine(b testing.TB) *Engine {
	b.Helper()
	e := manyGroupsEngine(b)
	mustExec(b, e, `CREATE TABLE fk (k1 INTEGER, k2 INTEGER, k3 INTEGER, k4 INTEGER, m1 INTEGER);
		INSERT INTO fk `+manyGroupsSQL+`;
		CREATE TABLE fj (k1 INTEGER, k2 INTEGER, a REAL);
		INSERT INTO fj SELECT k1, k2, sum(m1) FROM fk GROUP BY k1, k2;
		CREATE INDEX ixk ON fk (k1, k2); CREATE INDEX ixj ON fj (k1, k2);
		CREATE TABLE fv (k1 INTEGER, k2 INTEGER, k3 INTEGER, k4 INTEGER, pct REAL)`)
	return e
}

// divideSQL is the FV step of a generated Vpct plan.
const divideSQL = `INSERT INTO fv SELECT fk.k1, fk.k2, fk.k3, fk.k4, CASE WHEN fj.a <> 0 THEN fk.m1 / fj.a ELSE NULL END
	FROM fk, fj WHERE (fk.k1 = fj.k1 OR (fk.k1 IS NULL AND fj.k1 IS NULL)) AND (fk.k2 = fj.k2 OR (fk.k2 IS NULL AND fj.k2 IS NULL))`

// orderedSQL is the plan's final select, over a filled FV.
const orderedSQL = "SELECT k1, k2, k3, k4, pct FROM fv ORDER BY k1, k2, k3, k4"

// benchBothPaths runs stmt on the batch pipeline ("batch") and on the
// row-at-a-time oracle ("rows"); reset, when set, runs off the clock before
// each iteration.
func benchBothPaths(b *testing.B, e *Engine, stmt string, reset func()) {
	for _, path := range []struct {
		name  string
		batch bool
	}{{"batch", true}, {"rows", false}} {
		b.Run(path.name, func(b *testing.B) {
			UseReference(e, !path.batch)
			defer UseReference(e, false)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if reset != nil {
					b.StopTimer()
					reset()
					b.StartTimer()
				}
				if _, err := e.ExecSQLCtxP(context.Background(), stmt, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDivideJoinInsert is the FV step: 42 K rows of Fk joined to the 84
// of Fj through its index, the guarded division, the INSERT.
func BenchmarkDivideJoinInsert(b *testing.B) {
	e := fkEngine(b)
	fv, _ := e.Catalog().Get("fv")
	benchBothPaths(b, e, divideSQL, fv.Truncate)
}

// BenchmarkOrderedFinalSelect is the final select: 42 K rows ordered by four
// INTEGER keys and boxed into the result.
func BenchmarkOrderedFinalSelect(b *testing.B) {
	e := fkEngine(b)
	mustExec(b, e, divideSQL)
	benchBothPaths(b, e, orderedSQL, nil)
}

// BenchmarkFoldEmitInsert is the Fk step: the 300 K-row fold and its 42 K
// groups emitted as columns into the target.
func BenchmarkFoldEmitInsert(b *testing.B) {
	e := fkEngine(b)
	fk, _ := e.Catalog().Get("fk")
	benchBothPaths(b, e, "INSERT INTO fk "+manyGroupsSQL, fk.Truncate)
}

// TestDivideJoinInsertAllocBudget is the budget of BenchmarkDivideJoinInsert's
// statement, a generated plan's FV step over 42 K rows: id vectors and gather
// buffers from the first batch on, the target's five vectors doubling — O(log
// rows) allocations and none per row: 220 measured.
func TestDivideJoinInsertAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := fkEngine(t)
	fv, _ := e.Catalog().Get("fv")
	allocs := testing.AllocsPerRun(5, func() {
		fv.Truncate()
		if r, err := e.ExecSQL(divideSQL); err != nil || r.Affected < 41_000 {
			t.Fatal(r, err)
		}
	})
	if allocs > 242 {
		t.Errorf("the 42 K-row divide-join-insert made %.0f allocations, budget 242", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}

// TestOrderedFinalSelectAllocBudget is the budget of
// BenchmarkOrderedFinalSelect's statement, the plan's final select: the row
// ids, their packed keys and the radix sort's scratch, one gather buffer per column, one result slab —
// a constant number of allocations whatever the row count: 82 measured.
func TestOrderedFinalSelectAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := fkEngine(t)
	mustExec(t, e, divideSQL)
	allocs := testing.AllocsPerRun(5, func() {
		if r, err := e.ExecSQL(orderedSQL); err != nil || len(r.Rows) < 41_000 {
			t.Fatal(err)
		}
	})
	if allocs > 90 {
		t.Errorf("the ordered final select of 42 K rows made %.0f allocations, budget 90", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}

// kernelsEngine is BenchmarkFoldKernels' table of 100 K rows: every column
// twice, NULL-free and — its name suffixed n — NULL every 50th row. k (100
// values) and b make a direct-route key, w (100 values 2^40 apart), r (4
// values) and b a hash-route one; a and x are the INTEGER and REAL arguments.
func kernelsEngine(b testing.TB) *Engine {
	b.Helper()
	e := New(storage.NewCatalog())
	mustExec(b, e, `CREATE TABLE t (k INTEGER, b BOOLEAN, w INTEGER, r REAL, a INTEGER, x REAL,
		kn INTEGER, bn BOOLEAN, wn INTEGER, rn REAL, an INTEGER, xn REAL)`)
	tab, _ := e.Catalog().Get("t")
	rng := rand.New(rand.NewSource(1))
	row := make([]value.Value, 12)
	for i := 0; i < 100_000; i++ {
		k := int64(rng.Intn(100))
		row[0], row[1] = value.NewInt(k), value.NewBool(rng.Intn(2) == 0)
		row[2], row[3] = value.NewInt(k<<40), value.NewFloat(float64(rng.Intn(4))/2)
		row[4], row[5] = value.NewInt(int64(rng.Intn(1000))), value.NewFloat(rng.Float64()*1000)
		for c := range 6 {
			if row[6+c] = row[c]; i%50 == 0 {
				row[6+c] = value.Null
			}
		}
		if _, err := tab.AppendRow(row); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

// BenchmarkFoldKernels times one fold of kernelsEngine's table on one worker
// for each NULL-free or nullable input, typed kernel and key route: the key
// readers (keys.go) and foldWorker.advance's loops, with little else on the
// clock — a few hundred groups to emit.
func BenchmarkFoldKernels(b *testing.B) {
	e := kernelsEngine(b)
	aggs := []struct{ name, call string }{
		{"sum_int", "sum(a%[1]s)"}, {"sum_real", "sum(x%[1]s)"}, {"min_int", "min(a%[1]s)"}, {"count", "count(a%[1]s)"},
	}
	for _, nulls := range []struct{ name, suffix string }{{"nullfree", ""}, {"nullable", "n"}} {
		for _, agg := range aggs {
			for _, route := range []struct{ name, key string }{{"direct", "k%[1]s, b%[1]s"}, {"hash", "w%[1]s, r%[1]s, b%[1]s"}} {
				key := fmt.Sprintf(route.key, nulls.suffix)
				sql := fmt.Sprintf("SELECT %s, %s FROM t GROUP BY %s", key, fmt.Sprintf(agg.call, nulls.suffix), key)
				b.Run(nulls.name+"/"+agg.name+"/"+route.name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := e.ExecSQLCtxP(context.Background(), sql, 1); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
