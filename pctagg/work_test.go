package pctagg

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// hpctCaseShapes are the seven Hpct statements of the benchmark's hpct_case
// workload: the paper's primary queries q1–q7 of Tables 4–6 as Hpct.
var hpctCaseShapes = []string{
	"SELECT Hpct(salary BY gender) FROM employee",
	"SELECT marstatus, Hpct(salary BY gender) FROM employee GROUP BY marstatus",
	"SELECT educat, marstatus, Hpct(salary BY gender) FROM employee GROUP BY educat, marstatus",
	"SELECT age, marstatus, Hpct(salary BY gender, educat) FROM employee GROUP BY age, marstatus",
	"SELECT Hpct(salesAmt BY dweek) FROM sales",
	"SELECT dweek, Hpct(salesAmt BY monthNo) FROM sales GROUP BY dweek",
	"SELECT dweek, monthNo, Hpct(salesAmt BY dept) FROM sales GROUP BY dweek, monthNo",
}

// loadHpctCase loads employee and sales of n rows each, at the benchmark's
// cardinalities, into a fresh DB.
func loadHpctCase(tb testing.TB, n int) *DB {
	tb.Helper()
	db := Open()
	cat := db.Engine().Catalog()
	if _, err := workload.LoadEmployee(cat, "employee", n, 1); err != nil {
		tb.Fatal(err)
	}
	card := workload.PaperCardinalities()
	card.Store, card.Dept = 10, 50
	if _, err := workload.LoadSales(cat, "sales", n, card, 2); err != nil {
		tb.Fatal(err)
	}
	return db
}

// BenchmarkHpctStatement times each hpct_case shape through Query over
// 100 000 rows: the feedback query, the FH step's one scan of F with its
// dispatched CASE fold and typed division, and the final select.
func BenchmarkHpctStatement(b *testing.B) {
	db := loadHpctCase(b, 100_000)
	for i, q := range hpctCaseShapes {
		b.Run(fmt.Sprintf("q%d", i+1), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := db.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestHpctReadsFactTableOnce counts the work of each hpct_case shape on
// engine.rows.scanned: the FH step reads F once and the final select reads
// FH, and the feedback query, whose DISTINCT over the BY columns stops once it
// has met every combination their bounds allow, reads at most two batches a
// worker on top. Reading F a second time, as a feedback query that scans to
// the end does, fails it.
func TestHpctReadsFactTableOnce(t *testing.T) {
	const n, batch = 20_000, 1024
	db := loadHpctCase(t, n)
	scanned := obs.Default.Counter("engine.rows.scanned")
	for _, par := range []int{1, 2} {
		db.SetParallelism(par)
		for _, q := range hpctCaseShapes {
			t.Run(fmt.Sprintf("P=%d/%s", par, q), func(t *testing.T) {
				before := scanned.Value()
				rows, err := db.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				read := scanned.Value() - before
				once := int64(n + len(rows.Data)) // F, then FH
				if read < once || read > once+int64(2*batch*par) {
					t.Errorf("scanned %d rows, want F and FH (%d) plus at most %d for the feedback", read, once, 2*batch*par)
				}
			})
		}
	}
}
