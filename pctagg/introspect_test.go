package pctagg

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/leakcheck"
)

// paperDB loads the two tables the paper's eight primary queries (Tables 4,
// 5, 6) run over, at toy scale.
func paperDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	if _, err := db.Exec(`CREATE TABLE employee (RID INTEGER, gender VARCHAR, marstatus VARCHAR, educat VARCHAR, age INTEGER, salary INTEGER);
		CREATE TABLE sales (RID INTEGER, dweek VARCHAR, monthNo INTEGER, dept VARCHAR, store VARCHAR, salesAmt INTEGER)`); err != nil {
		t.Fatal(err)
	}
	genders := []string{"F", "M"}
	mars := []string{"single", "married"}
	educs := []string{"hs", "college"}
	weeks := []string{"mon", "tue", "wed"}
	depts := []string{"toys", "food"}
	stores := []string{"s1", "s2"}
	var emp, sal strings.Builder
	emp.WriteString("INSERT INTO employee VALUES ")
	sal.WriteString("INSERT INTO sales VALUES ")
	for i := 0; i < 48; i++ {
		if i > 0 {
			emp.WriteByte(',')
			sal.WriteByte(',')
		}
		fmt.Fprintf(&emp, "(%d,'%s','%s','%s',%d,%d)", i,
			genders[i%2], mars[i%3%2], educs[i%5%2], 20+i%40, 1000+i*7)
		fmt.Fprintf(&sal, "(%d,'%s',%d,'%s','%s',%d)", i,
			weeks[i%3], 1+i%4, depts[i%2], stores[i%7%2], 5+i%11)
	}
	if _, err := db.Exec(emp.String()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(sal.String()); err != nil {
		t.Fatal(err)
	}
	return db
}

// primarySQL is the paper's eight primary percentage queries.
var primarySQL = []string{
	"SELECT gender, Vpct(salary) FROM employee GROUP BY gender",
	"SELECT marstatus, gender, Vpct(salary BY gender) FROM employee GROUP BY marstatus, gender",
	"SELECT educat, marstatus, gender, Vpct(salary BY gender) FROM employee GROUP BY educat, marstatus, gender",
	"SELECT age, marstatus, gender, educat, Vpct(salary BY gender, educat) FROM employee GROUP BY age, marstatus, gender, educat",
	"SELECT dweek, Vpct(salesAmt) FROM sales GROUP BY dweek",
	"SELECT dweek, Hpct(salesAmt BY monthNo) FROM sales GROUP BY dweek",
	"SELECT dweek, monthNo, Hpct(salesAmt BY dept) FROM sales GROUP BY dweek, monthNo",
	"SELECT dweek, monthNo, Hpct(salesAmt BY dept, store) FROM sales GROUP BY dweek, monthNo",
}

// one unwraps a single-row single-column query.
func one(t *testing.T, db *DB, sql string) any {
	t.Helper()
	rows, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if len(rows.Data) != 1 || len(rows.Data[0]) != 1 {
		t.Fatalf("%s: want 1x1 result, got %v", sql, rows.Data)
	}
	return rows.Data[0][0]
}

// TestIntrospectionPrimaryQueries is the PR's acceptance scenario: run the
// paper's eight primary queries N times each with the summary cache on, then
// read exact call counts, latencies, and cache-hit counters back through
// SELECTs over pct_stat_statements.
func TestIntrospectionPrimaryQueries(t *testing.T) {
	const N = 3
	db := paperDB(t)
	db.EnableSummaryCache(true)
	if err := db.EnableIntrospection(IntrospectionConfig{}); err != nil {
		t.Fatal(err)
	}
	for _, sql := range primarySQL {
		for i := 0; i < N; i++ {
			if _, err := db.Query(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
	}

	rows, err := db.Query("SELECT query, calls, total_ms, p50_ms, p99_ms, cache_hits, cache_misses FROM pct_stat_statements WHERE top = 1 ORDER BY query")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != len(primarySQL) {
		t.Fatalf("top-level fingerprints = %d, want %d: %v", len(rows.Data), len(primarySQL), rows.Data)
	}
	var sumHits, sumMisses int64
	for _, row := range rows.Data {
		q := row[0].(string)
		if calls := row[1].(int64); calls != N {
			t.Errorf("%s: calls = %d, want %d", q, calls, N)
		}
		if total := row[2].(float64); total <= 0 {
			t.Errorf("%s: total_ms = %v, want > 0", q, total)
		}
		if p50, p99 := row[3].(float64), row[4].(float64); p50 > p99 {
			t.Errorf("%s: p50 %v > p99 %v", q, p50, p99)
		}
		sumHits += row[5].(int64)
		sumMisses += row[6].(int64)
	}
	// Every planned query registers summaries on its first run and reuses
	// them on the other N-1, so the counters read back from SQL must agree
	// exactly with the planner's own cache statistics.
	cs := db.SummaryCacheStats()
	if sumHits != cs.Hits || sumMisses != cs.Misses {
		t.Errorf("cache counters via SQL = %d hits/%d misses, planner says %d/%d",
			sumHits, sumMisses, cs.Hits, cs.Misses)
	}
	if sumHits == 0 || sumMisses == 0 {
		t.Errorf("expected both hits (%d) and misses (%d) after %d repeated runs", sumHits, sumMisses, N)
	}

	// Statement-level (top = 0) entries record the generated statements.
	if n := one(t, db, "SELECT COUNT(*) FROM pct_stat_statements WHERE top = 0").(int64); n == 0 {
		t.Error("no statement-level fingerprints recorded")
	}
}

// TestIntrospectionVpctOverStats closes the loop the PR title promises:
// percentage aggregations over the statistics tables themselves.
func TestIntrospectionVpctOverStats(t *testing.T) {
	db := paperDB(t)
	if err := db.EnableIntrospection(IntrospectionConfig{}); err != nil {
		t.Fatal(err)
	}
	// 3 + 1 top-level calls across two fingerprints.
	for i := 0; i < 3; i++ {
		if _, err := db.Query("SELECT gender, Vpct(salary) FROM employee GROUP BY gender"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Query("SELECT dweek, Vpct(salesAmt) FROM sales GROUP BY dweek"); err != nil {
		t.Fatal(err)
	}

	rows, err := db.Query("SELECT query, Vpct(calls) FROM pct_stat_statements WHERE top = 1 GROUP BY query")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 2 {
		t.Fatalf("rows = %v", rows.Data)
	}
	shares := map[string]float64{}
	var sum float64
	for _, row := range rows.Data {
		s := row[1].(float64)
		shares[row[0].(string)] = s
		sum += s
	}
	if math.Abs(sum-1.0) > 1e-9 {
		t.Errorf("shares sum to %v, want 1.0", sum)
	}
	for q, s := range shares {
		want := 0.25
		if strings.Contains(q, "employee") {
			want = 0.75
		}
		if math.Abs(s-want) > 1e-9 {
			t.Errorf("%s share = %v, want %v", q, s, want)
		}
	}

	// Hpct pivots the same statistics horizontally: one column per query.
	hrows, err := db.Query("SELECT top, Hpct(calls BY query) FROM pct_stat_statements GROUP BY top")
	if err != nil {
		t.Fatal(err)
	}
	if len(hrows.Data) == 0 || len(hrows.Columns) < 3 {
		t.Errorf("Hpct over stats: columns = %v, data = %v", hrows.Columns, hrows.Data)
	}
}

func TestIntrospectionSelfGuard(t *testing.T) {
	db := paperDB(t)
	if err := db.EnableIntrospection(IntrospectionConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT gender, Vpct(salary) FROM employee GROUP BY gender"); err != nil {
		t.Fatal(err)
	}
	before := db.IntrospectionStats()
	r1, err := db.Query("SELECT query, calls FROM pct_stat_statements ORDER BY query")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db.Query("SELECT query, calls FROM pct_stat_statements ORDER BY query")
	if err != nil {
		t.Fatal(err)
	}
	after := db.IntrospectionStats()
	if before.Statements != after.Statements {
		t.Errorf("introspection queries changed the fingerprint count: %d -> %d", before.Statements, after.Statements)
	}
	if len(r1.Data) != len(r2.Data) {
		t.Fatalf("row count changed between identical introspection queries: %d vs %d", len(r1.Data), len(r2.Data))
	}
	for i := range r1.Data {
		if r1.Data[i][0] != r2.Data[i][0] || r1.Data[i][1] != r2.Data[i][1] {
			t.Errorf("row %d changed: %v vs %v", i, r1.Data[i], r2.Data[i])
		}
	}
	// A Vpct or Hpct over the stats is a planned, multi-statement query —
	// none of its generated statements, nor the Hpct's feedback scan, may
	// record themselves either.
	for _, q := range []string{
		"SELECT query, Vpct(calls) FROM pct_stat_statements GROUP BY query",
		"SELECT top, Hpct(calls BY query) FROM pct_stat_statements GROUP BY top",
	} {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.IntrospectionStats().Statements; got != after.Statements {
		t.Errorf("planned introspection query recorded itself: %d -> %d fingerprints", after.Statements, got)
	}
	// Full-content check, not just the count: the planned query's generated
	// statements (CREATE/INSERT/DROP pct_fk_N) must not have bumped calls on
	// fingerprints an earlier recorded percentage query already created.
	r3, err := db.Query("SELECT query, calls FROM pct_stat_statements ORDER BY query")
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.Data) != len(r2.Data) {
		t.Fatalf("planned introspection query changed the row count: %d vs %d", len(r2.Data), len(r3.Data))
	}
	for i := range r3.Data {
		if r3.Data[i][0] != r2.Data[i][0] || r3.Data[i][1] != r2.Data[i][1] {
			t.Errorf("planned introspection query mutated row %d: %v vs %v", i, r2.Data[i], r3.Data[i])
		}
	}
}

func TestIntrospectionCacheEntriesTable(t *testing.T) {
	db := paperDB(t)
	db.EnableSummaryCache(true)
	if err := db.EnableIntrospection(IntrospectionConfig{}); err != nil {
		t.Fatal(err)
	}
	q := "SELECT gender, Vpct(salary) FROM employee GROUP BY gender"
	for i := 0; i < 2; i++ {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := db.Query("SELECT cache_key, base_table, state, deltable FROM pct_cache_entries")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) == 0 {
		t.Fatal("pct_cache_entries empty after cached query")
	}
	for _, row := range rows.Data {
		if row[1].(string) != "employee" {
			t.Errorf("base_table = %v, want employee", row[1])
		}
		if st := row[2].(string); st != "clean" {
			t.Errorf("state = %q, want clean", st)
		}
	}
	// An append flips deltable entries to pending (incremental maintenance
	// outstanding) without invalidating them.
	if _, err := db.Exec("INSERT INTO employee VALUES (999,'F','single','hs',30,1234)"); err != nil {
		t.Fatal(err)
	}
	n := one(t, db, "SELECT COUNT(*) FROM pct_cache_entries WHERE state = 'pending' AND deltable = 1").(int64)
	if n == 0 {
		t.Error("no pending deltable entries after an append")
	}
}

func TestIntrospectionStatsAndReset(t *testing.T) {
	db := paperDB(t)
	s := db.IntrospectionStats()
	if s.Enabled || s.Statements != 0 {
		t.Errorf("introspection should start disabled and empty: %+v", s)
	}
	if err := db.EnableIntrospection(IntrospectionConfig{MaxStatements: 100, FlightRecords: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT gender, Vpct(salary) FROM employee GROUP BY gender"); err != nil {
		t.Fatal(err)
	}
	s = db.IntrospectionStats()
	if !s.Enabled || s.Statements == 0 || s.FlightRecords == 0 {
		t.Errorf("stats after a query = %+v", s)
	}
	db.ResetStatementStats()
	if got := db.IntrospectionStats().Statements; got != 0 {
		t.Errorf("Statements after reset = %d, want 0", got)
	}
	db.DisableIntrospection()
	if db.IntrospectionStats().Enabled {
		t.Error("still enabled after DisableIntrospection")
	}
	if _, err := db.Query("SELECT * FROM pct_cache_entries"); err == nil {
		t.Error("pct_cache_entries should be gone after DisableIntrospection")
	}
}

// TestIntrospectTraceSinkSwapRace flips the trace sink on and off while a
// concurrent workload queries — the regression test for the racy plain-field
// sink this PR replaced with an atomic pointer. Run under -race.
func TestIntrospectTraceSinkSwapRace(t *testing.T) {
	defer leakcheck.Check(t)()
	db := demoDB(t)
	if err := db.EnableIntrospection(IntrospectionConfig{}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var delivered sync.Map
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Query("SELECT state, Vpct(salesAmt) FROM sales GROUP BY state"); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		i := i
		db.SetTraceSink(func(sp *Span) { delivered.Store(i, sp.Name) })
		db.SetTraceSink(nil)
	}
	close(stop)
	wg.Wait()
	// Any delivered span must be a complete query root, not a torn pair.
	delivered.Range(func(_, v any) bool {
		if v.(string) != "query" {
			t.Errorf("sink received span %q, want query root", v)
		}
		return true
	})
}
