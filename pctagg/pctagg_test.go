package pctagg

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func demoDB(t testing.TB) *DB {
	t.Helper()
	db := Open()
	_, err := db.Exec(`CREATE TABLE sales (RID INTEGER, state VARCHAR, city VARCHAR, salesAmt INTEGER);
		INSERT INTO sales VALUES
		(1,'CA','San Francisco',13),(2,'CA','San Francisco',3),(3,'CA','San Francisco',67),
		(4,'CA','Los Angeles',23),(5,'TX','Houston',5),(6,'TX','Houston',35),
		(7,'TX','Houston',10),(8,'TX','Houston',14),(9,'TX','Dallas',53),(10,'TX','Dallas',32)`)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestQueryStandardSQL(t *testing.T) {
	db := demoDB(t)
	rows, err := db.Query("SELECT state, sum(salesAmt) FROM sales GROUP BY state ORDER BY state")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 2 || rows.Data[0][1].(int64) != 106 {
		t.Errorf("data = %v", rows.Data)
	}
}

func TestQueryVpct(t *testing.T) {
	db := demoDB(t)
	rows, err := db.Query("SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 4 {
		t.Fatalf("data = %v", rows.Data)
	}
	if got := rows.Data[0][2].(float64); math.Abs(got-23.0/106) > 1e-9 {
		t.Errorf("LA pct = %v", got)
	}
}

func TestQueryHpct(t *testing.T) {
	db := demoDB(t)
	rows, err := db.Query("SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 2 || len(rows.Columns) != 5 { // state + 4 cities
		t.Fatalf("columns = %v, data = %v", rows.Columns, rows.Data)
	}
	// Cities absent from a state read 0%.
	var caRow []any
	for _, r := range rows.Data {
		if r[0] == "CA" {
			caRow = r
		}
	}
	zero := 0
	for _, v := range caRow[1:] {
		if f, ok := v.(float64); ok && f == 0 { // floateq:ok exact expected value
			zero++
		}
	}
	if zero != 2 { // Dallas, Houston
		t.Errorf("CA row = %v", caRow)
	}
}

func TestQueryHagg(t *testing.T) {
	db := demoDB(t)
	rows, err := db.Query("SELECT state, sum(salesAmt BY city), count(*) FROM sales GROUP BY state")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Columns) != 6 {
		t.Fatalf("columns = %v", rows.Columns)
	}
	for _, r := range rows.Data {
		if r[0] == "TX" {
			// TX has no SF/LA sales: NULLs.
			nulls := 0
			for _, v := range r[1:5] {
				if v == nil {
					nulls++
				}
			}
			if nulls != 2 {
				t.Errorf("TX row = %v", r)
			}
		}
	}
}

func TestStrategiesChangeGeneratedSQL(t *testing.T) {
	db := demoDB(t)
	q := "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city"
	def, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(def, "INSERT INTO") || strings.Contains(def, "UPDATE") {
		t.Errorf("default plan:\n%s", def)
	}
	s := DefaultStrategies()
	s.Vpct.UpdateInPlace = true
	db.SetStrategies(s)
	upd, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(upd, "UPDATE") {
		t.Errorf("update plan:\n%s", upd)
	}
	if got := db.GetStrategies(); !got.Vpct.UpdateInPlace {
		t.Error("GetStrategies mismatch")
	}
}

func TestAllStrategiesAgreeThroughPublicAPI(t *testing.T) {
	q := "SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state"
	variants := []Strategies{
		DefaultStrategies(),
		{Hpct: HpctStrategy{FromVertical: true}},
	}
	var base *Rows
	for _, s := range variants {
		db := demoDB(t)
		db.SetStrategies(s)
		rows, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = rows
			continue
		}
		if len(rows.Data) != len(base.Data) {
			t.Fatalf("row counts differ")
		}
		for i := range rows.Data {
			for j := range rows.Data[i] {
				a, b := base.Data[i][j], rows.Data[i][j]
				fa, aok := a.(float64)
				fb, bok := b.(float64)
				if aok && bok {
					if math.Abs(fa-fb) > 1e-9 {
						t.Fatalf("cell (%d,%d): %v vs %v", i, j, a, b)
					}
				} else if a != b {
					t.Fatalf("cell (%d,%d): %v vs %v", i, j, a, b)
				}
			}
		}
	}
}

// TestAutoStrategyRunsWhatItAdvises: at 2 000 rows in 6 fine groups the
// advisor's rule says from FV, but these shapes only have a direct plan — two
// Hpct terms, a DISTINCT aggregate riding along, a ROLLUP. The advisor must
// not offer what the planner rejects: with AutoStrategy on they return the
// direct plan's rows.
func TestAutoStrategyRunsWhatItAdvises(t *testing.T) {
	db := Open()
	if _, err := db.Exec("CREATE TABLE f (g INTEGER, d INTEGER, e INTEGER, a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	rows := make([][]any, 2000)
	for i := range rows {
		rows[i] = []any{i % 2, i % 3, i % 3, i}
	}
	if err := db.InsertRows("f", rows); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT g, Hpct(a BY d), Hpct(a BY e) FROM f GROUP BY g",
		"SELECT g, Hpct(a BY d), count(DISTINCT e) FROM f GROUP BY g",
		"SELECT g, Hpct(a BY d), GROUPING(g) FROM f GROUP BY ROLLUP(g)",
		"SELECT g, sum(a BY d), count(DISTINCT e) FROM f GROUP BY g",
	} {
		db.AutoStrategy(false)
		direct, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		db.AutoStrategy(true)
		advised, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s with AutoStrategy: %v", q, err)
		}
		if advised.String() != direct.String() {
			t.Errorf("%s: AutoStrategy rows differ from the direct plan's:\n%s\nvs\n%s", q, advised, direct)
		}
	}
}

func TestOLAPEquivalentRunnable(t *testing.T) {
	db := demoDB(t)
	q := "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city"
	olap, err := db.OLAPEquivalent(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(olap, "OVER (PARTITION BY") {
		t.Errorf("olap = %s", olap)
	}
	rows, err := db.Query(olap)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 4 {
		t.Errorf("olap rows = %v", rows.Data)
	}
	base, _ := db.Query(q)
	for i := range rows.Data {
		fa := rows.Data[i][2].(float64)
		fb := base.Data[i][2].(float64)
		if math.Abs(fa-fb) > 1e-9 {
			t.Errorf("row %d: olap %v vs vpct %v", i, fa, fb)
		}
	}
}

func TestInsertRowsBulkLoad(t *testing.T) {
	db := Open()
	if _, err := db.Exec("CREATE TABLE f (d INTEGER, a REAL, s VARCHAR, ok BOOLEAN)"); err != nil {
		t.Fatal(err)
	}
	err := db.InsertRows("f", [][]any{
		{1, 2.5, "x", true},
		{int64(2), 3.5, "y", false},
		{nil, nil, nil, nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query("SELECT count(*), sum(a) FROM f")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].(int64) != 3 || rows.Data[0][1].(float64) != 6.0 { // floateq:ok exact expected value
		t.Errorf("data = %v", rows.Data)
	}
	if err := db.InsertRows("nosuch", nil); err == nil {
		t.Error("InsertRows into missing table must fail")
	}
	if err := db.InsertRows("f", [][]any{{"not-an-int", 1.0, "s", true}}); err == nil {
		t.Error("type mismatch must fail")
	}
}

func TestRowsString(t *testing.T) {
	db := demoDB(t)
	rows, _ := db.Query("SELECT state, sum(salesAmt) AS total FROM sales GROUP BY state ORDER BY state")
	s := rows.String()
	if !strings.Contains(s, "total") || !strings.Contains(s, "149") {
		t.Errorf("String = %q", s)
	}
}

func TestTablesAndLimits(t *testing.T) {
	db := demoDB(t)
	if tabs := db.Tables(); len(tabs) != 1 || tabs[0] != "sales" {
		t.Errorf("tables = %v", tabs)
	}
	db.SetMaxColumns(3)
	if db.MaxColumns() != 3 {
		t.Error("MaxColumns not set")
	}
	// Partitioned horizontal query still answers correctly.
	rows, err := db.Query("SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Columns) != 5 {
		t.Errorf("columns = %v", rows.Columns)
	}
}

func TestQueryErrors(t *testing.T) {
	db := demoDB(t)
	if _, err := db.Query("UPDATE sales SET salesAmt = 0"); err == nil {
		t.Error("Query on UPDATE must fail")
	}
	if _, err := db.Query("SELECT Vpct(salesAmt BY city) FROM sales"); err == nil {
		t.Error("rule violation must surface")
	}
	if _, err := db.Exec("SELECT FROM"); err == nil {
		t.Error("parse error must surface")
	}
	if _, err := db.OLAPEquivalent("SELECT a FROM sales"); err == nil {
		t.Error("OLAP equivalent of a standard query must fail")
	}
}

func TestQueryExplainStatement(t *testing.T) {
	db := demoDB(t)
	rows, err := db.Query("EXPLAIN SELECT state, sum(salesAmt) FROM sales GROUP BY state")
	if err != nil {
		t.Fatal(err)
	}
	text := ""
	for _, r := range rows.Data {
		text += r[0].(string) + "\n"
	}
	if !strings.Contains(text, "HashAggregate") || !strings.Contains(text, "Scan sales") {
		t.Errorf("plan:\n%s", text)
	}
}

func TestShareSummariesThroughPublicAPI(t *testing.T) {
	db := demoDB(t)
	db.EnableSummaryCache(true)
	defer db.FlushSummaries()
	q := "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city"
	first, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Data) != len(second.Data) {
		t.Fatal("shared run changed results")
	}
	for i := range first.Data {
		if first.Data[i][2].(float64) != second.Data[i][2].(float64) { // floateq:ok exact expected value
			t.Fatalf("row %d changed: %v vs %v", i, first.Data[i], second.Data[i])
		}
	}
	db.FlushSummaries()
	if len(db.Tables()) != 1 {
		t.Errorf("summaries leaked: %v", db.Tables())
	}
}

func TestConcurrentQueriesThroughPublicAPI(t *testing.T) {
	// Reads and percentage queries may run concurrently; each plan's
	// temporary tables are private.
	db := demoDB(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				rows, err := db.Query("SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city")
				if err != nil {
					errs <- err
					return
				}
				if len(rows.Data) != 4 {
					errs <- fmt.Errorf("got %d rows", len(rows.Data))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if len(db.Tables()) != 1 {
		t.Errorf("temporaries leaked: %v", db.Tables())
	}
}
