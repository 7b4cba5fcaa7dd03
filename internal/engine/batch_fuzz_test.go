package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// fuzzFoldSchema is the fuzz fact table: int and string group keys, an int
// and a float measure, a bool column — every type the fold kernels
// specialize on, all nullable — and two high-cardinality keys, id and s,
// that cycle through fuzzManyGroups values with the row number, so that a
// table of more rows than that has every group in several batches and, at
// P > 1, in several partitions.
var fuzzFoldSchema = storage.Schema{
	{Name: "d1", Type: storage.TypeInt},
	{Name: "d2", Type: storage.TypeInt},
	{Name: "d3", Type: storage.TypeString},
	{Name: "a", Type: storage.TypeInt},
	{Name: "b", Type: storage.TypeFloat},
	{Name: "c", Type: storage.TypeBool},
	{Name: "id", Type: storage.TypeInt},
	{Name: "s", Type: storage.TypeString},
}

const fuzzManyGroups = 3500

// fuzzFoldQueries sweep the five aggregates (sum, count, min, max, count
// DISTINCT, plus avg) over int, float, string, and bool columns, the
// int-key and string-key group paths, vectorized and interleaved WHERE
// clauses, computed keys (by select-list position), CASE and arithmetic
// arguments, and arguments that error on every row (sum over bool or
// VARCHAR) or only on some (arithmetic on a VARCHAR behind a CASE arm),
// whose error text must match the reference's. The DISTINCT shapes are folds
// with keys and no aggregates: bare, computed and NULL keys, more than four
// keys, VARCHAR, a join, window output (whose partitions are folds too: the
// operator's against the reference's, two implementations, where both modes
// once shared the window's own sort sweep), ORDER BY + LIMIT. The last block is
// the dimension dispatch: CASE-arm families over INTEGER and VARCHAR
// (fixed-width key) and BOOLEAN (fixed-width too) columns with an arm no row matches, IS NULL
// arms, negative constants, ELSE 0 / ELSE NULL / no ELSE, FLOAT measures
// (-0.0 among them) and INTEGER-then-FLOAT mixes, two specs on one condition,
// two families in one statement, arms whose THEN or sum() fails on some rows
// only, arms under a WHERE, over a join and without GROUP BY, and shapes that
// must not dispatch beside ones that do. Then the group projections: HAVING
// over aggregates in and out of the select list, a computed item that raises
// at some group, and ORDER BY + LIMIT over aggregate and join output, sorted
// as collected columns. Then constant arguments, read once at plan time —
// count(1), sum(1), sum(2.5), sum(NULL), count(NULL), min(1), a constant THEN
// — beside sum('x'), which raises at the first tuple as the reference does,
// alone and as an arm. fuzzPlainQueries are the column
// path's shapes — nothing folds: gathers of every type, kernel and evaluated
// filters, the guarded division, items and predicates that raise on some
// rows, inner, outer and NULL-safe joins, ORDER BY on packable, REAL and
// VARCHAR keys, over a selection, with LIMIT. fuzzManyGroupQueries, appended last,
// are the many-group shapes: thousands of groups grown across batches and
// merged across partitions under an INTEGER and a VARCHAR key (fixed-width
// route) and a computed key (coded with its kind, evaluated a batch at a
// time), a dispatched Hpct shape and REAL sums, minima and maxima, a HAVING
// and a computed item that raise at a group past the first batch of groups,
// and the cut of a fold's batch: a computed key that raises at row 1500, and
// an arm and a plain spec that both raise there, the arm first. The last three
// fill their directory (foldOp.saturation): a DISTINCT that may stop once it
// has met all 3 500 ids, a BOOLEAN key under a kernel filter, and a BOOLEAN
// key behind a filter that raises at row 1500, which must still raise.
var fuzzFoldQueries = append([]string{
	"SELECT d1, sum(a), count(*) FROM f GROUP BY d1",
	"SELECT d1, d3, min(a), max(b), count(a) FROM f GROUP BY d1, d3",
	"SELECT d3, count(DISTINCT a), sum(b) FROM f GROUP BY d3",
	"SELECT d1, d2, sum(a), avg(b) FROM f WHERE d2 = 1 GROUP BY d1, d2",
	"SELECT sum(a), min(b), max(a), count(*) FROM f",
	"SELECT d1, count(*) FROM f WHERE 10 / d2 > 2 GROUP BY d1",
	"SELECT c, sum(a), min(d3) FROM f WHERE d1 IS NULL GROUP BY c",
	"SELECT d1, sum(c) FROM f GROUP BY d1",
	"SELECT d1 * 3 + d2, count(*), sum(a) FROM f GROUP BY 1",
	"SELECT CASE WHEN c THEN d3 ELSE 'f' END, d2, min(b), max(a) FROM f GROUP BY 1, d2",
	"SELECT d1, sum(CASE WHEN d2 = 1 THEN a ELSE 0 END), sum(a * 2 - d2), count(10 / d2) FROM f GROUP BY d1",
	"SELECT d2, min(d3), sum(d3) FROM f GROUP BY d2",
	"SELECT d1, count(a), sum(CASE WHEN d2 = 2 THEN a + d3 ELSE a END) FROM f WHERE d1 IS NOT NULL GROUP BY d1",
	"SELECT DISTINCT d1 FROM f",
	"SELECT DISTINCT d3, b / 2 FROM f WHERE d2 = 1",
	"SELECT DISTINCT d1, d2, d3, c, a - a FROM f",
	"SELECT DISTINCT x.d1, y.d3 FROM f x, f y WHERE x.a = y.a AND y.d2 = 0",
	"SELECT DISTINCT d3, sum(a) OVER (PARTITION BY d3), max(b) OVER (PARTITION BY d3, c) FROM f",
	"SELECT DISTINCT d2, c FROM f WHERE 10 / d2 > 2 ORDER BY c DESC, d2 LIMIT 3",
	"SELECT d1, sum(a), sum(CASE WHEN d2 = 0 THEN a ELSE 0 END), sum(CASE WHEN d2 = 1 THEN a ELSE 0 END), sum(CASE WHEN d2 = 2 THEN a ELSE 0 END), sum(CASE WHEN d2 = 7 THEN a ELSE 0 END), sum(CASE WHEN d2 IS NULL THEN a ELSE 0 END) FROM f GROUP BY d1",
	"SELECT d3, sum(CASE WHEN d2 = 1 THEN b ELSE 0 END), sum(CASE WHEN d2 = 2 THEN b ELSE 0 END), min(CASE WHEN d2 = 1 THEN b ELSE NULL END), avg(CASE WHEN d2 = 2 THEN a END), count(CASE WHEN d2 = 1 THEN 1 END), max(CASE WHEN d2 = 9 THEN a END) FROM f GROUP BY d3",
	"SELECT d1, sum(CASE WHEN d2 = 0 THEN CASE WHEN c THEN a ELSE b END ELSE 0 END), sum(CASE WHEN d2 = 1 THEN CASE WHEN c THEN b ELSE a END ELSE 0 END) FROM f GROUP BY d1",
	"SELECT d2, sum(CASE WHEN d3 = 'x' AND c = TRUE THEN b ELSE 0 END), sum(CASE WHEN d3 = 'y' AND c = FALSE THEN b ELSE 0 END), sum(CASE WHEN d3 IS NULL AND c = TRUE THEN b ELSE 0 END), sum(CASE WHEN d1 = 1 THEN a ELSE 0 END), sum(CASE WHEN d1 = 4 THEN a ELSE 0 END) FROM f GROUP BY d2",
	"SELECT d1, sum(CASE WHEN d2 = 1 THEN d3 ELSE 0 END), sum(CASE WHEN d2 = 2 THEN a ELSE 0 END) FROM f GROUP BY d1",
	"SELECT d1, count(*), sum(CASE WHEN d2 = 2 THEN a ELSE 0 END), sum(CASE WHEN d2 = 1 THEN a + d3 ELSE 0 END) FROM f WHERE d1 IS NOT NULL GROUP BY d1",
	"SELECT d1, sum(CASE WHEN a = -1 THEN b ELSE 0 END), sum(CASE WHEN a = -20 THEN b ELSE 0 END), sum(CASE WHEN a = 1 THEN b ELSE 0 END) FROM f WHERE d2 = 1 GROUP BY d1",
	"SELECT d3, sum(CASE WHEN a = -3 THEN b ELSE 0 END), count(CASE WHEN a = 3 THEN b END) FROM f WHERE a = -3 GROUP BY d3",
	"SELECT x.d1, sum(CASE WHEN y.d2 = 0 THEN x.b ELSE 0 END), sum(CASE WHEN y.d2 = 1 THEN x.b ELSE 0 END), sum(CASE WHEN y.d2 IS NULL THEN x.a ELSE 0 END) FROM f x, f y WHERE x.a = y.a AND y.d1 = 0 GROUP BY x.d1",
	"SELECT sum(CASE WHEN d2 = 0 THEN b ELSE 0 END), sum(CASE WHEN d2 = 5 THEN b ELSE 0 END), count(CASE WHEN d2 = 0 THEN 1 END) FROM f",
	"SELECT d1, sum(CASE WHEN d2 = 1 OR d2 = 2 THEN a ELSE 0 END), sum(CASE WHEN d2 = 1.0 THEN a ELSE 0 END), sum(CASE WHEN d2 = 1 THEN a ELSE 1 END), sum(CASE WHEN d2 IS NOT NULL THEN b ELSE 0 END), sum(CASE WHEN b = 0.5 THEN a ELSE 0 END), sum(CASE WHEN d2 = 2 THEN b ELSE 0 END) FROM f GROUP BY d1",
	"SELECT d1, sum(a) FROM f GROUP BY d1 HAVING sum(a) > 0 AND count(*) > 1",
	"SELECT d3, c, max(b) FROM f GROUP BY d3, c HAVING min(a) < 0",
	"SELECT d1, d2, CASE WHEN d1 = 3 THEN min(d3) + 1 ELSE sum(a) END FROM f GROUP BY d1, d2 HAVING count(*) > 0",
	"SELECT d1, d3, sum(a), count(*) FROM f GROUP BY d1, d3 ORDER BY 3 DESC, 1, 2 LIMIT 5",
	"SELECT x.id, CASE WHEN y.b <> 0 THEN x.a / y.b ELSE NULL END, 0 FROM f x, f y WHERE x.id = y.d1 ORDER BY 1 DESC, 2 LIMIT 40",
	"SELECT d1, count(1), sum(1), sum(2.5), sum(NULL), count(NULL), min(1), avg(-2) FROM f GROUP BY d1",
	"SELECT count(1), sum(2.5), min(1), max('m'), count(DISTINCT 3) FROM f WHERE d2 = 1",
	"SELECT d1, count(1), sum('x') FROM f GROUP BY d1",
	"SELECT d3, sum(CASE WHEN d2 = 1 THEN 1 ELSE 0 END), count(CASE WHEN d2 = 2 THEN 1 END), sum(CASE WHEN d2 = 0 THEN 'x' ELSE 0 END) FROM f GROUP BY d3",
}, append(fuzzPlainQueries, fuzzManyGroupQueries...)...)

var fuzzPlainQueries = []string{
	"SELECT * FROM f",
	"SELECT id, d3, b, c FROM f WHERE d2 = 1 AND c IS NOT NULL",
	"SELECT id, a * 2, CASE WHEN d2 <> 0 THEN a / d2 ELSE NULL END, CASE WHEN b <> 0 THEN a / b ELSE NULL END FROM f WHERE d1 = 2 AND b > 0",
	"SELECT id, 10 / d2, a + d3 FROM f WHERE d1 = 4 AND a = 20",
	"SELECT id, d3 FROM f WHERE 10 / d2 > 2 AND d1 = 1",
	"SELECT x.id, y.b, CASE WHEN y.b <> 0 THEN x.a / y.b ELSE NULL END FROM f x, f y WHERE x.id = y.a",
	"SELECT x.id, y.id, y.s FROM f x LEFT OUTER JOIN f y ON x.a = y.id AND x.d2 = y.d2",
	"SELECT x.id, y.d3 FROM f x, f y WHERE (x.d1 = y.a OR (x.d1 IS NULL AND y.a IS NULL)) AND y.id = 7",
	"SELECT id, d1, d2 FROM f ORDER BY d1 DESC, d2, c, id",
	"SELECT id, b FROM f WHERE d2 = 2 ORDER BY b DESC, d3, a LIMIT 50",
	"SELECT s, a + 1 FROM f WHERE c ORDER BY a, id DESC",
}

var fuzzManyGroupQueries = []string{
	"SELECT id, d1, sum(a), count(*), count(a) FROM f GROUP BY id, d1",
	"SELECT s, min(a), sum(b), avg(a) FROM f GROUP BY s",
	"SELECT id * 2 + d2, count(*), sum(a) FROM f GROUP BY 1",
	"SELECT id, sum(a), sum(CASE WHEN d2 = 0 THEN a ELSE 0 END), sum(CASE WHEN d2 = 1 THEN a ELSE 0 END), sum(CASE WHEN d2 = 2 THEN b ELSE 0 END), sum(CASE WHEN d2 IS NULL THEN b ELSE 0 END) FROM f GROUP BY id",
	"SELECT id, sum(b), min(b), max(b), max(a) FROM f WHERE d1 IS NOT NULL GROUP BY id",
	"SELECT DISTINCT s, id FROM f",
	"SELECT id, sum(a) FROM f GROUP BY id HAVING count(*) > 2",
	"SELECT id, CASE WHEN id > 2000 THEN min(d3) + 1 ELSE sum(a) END FROM f GROUP BY id",
	"SELECT id, count(*) FROM f GROUP BY id HAVING CASE WHEN id > 2000 THEN min(d3) + 1 ELSE 1 END > 0",
	"SELECT CASE WHEN id >= 1500 THEN s + 1 ELSE id END, count(*) FROM f GROUP BY 1",
	"SELECT id, sum(CASE WHEN id = 1500 THEN s ELSE 0 END), count(10 / (id - 1500)) FROM f GROUP BY id",
	"SELECT DISTINCT id FROM f",
	"SELECT c FROM f WHERE d2 = 1 GROUP BY c",
	"SELECT DISTINCT c FROM f WHERE 10 / (id - 1500) > -100",
}

func fuzzFoldRow(rng *rand.Rand, i int) []value.Value {
	strs := []string{"x", "y", "z", "w"}
	row := []value.Value{
		value.NewInt(int64(rng.Intn(5))),
		value.NewInt(int64(rng.Intn(3))), // includes 0: 10/d2 errors
		value.NewString(strs[rng.Intn(len(strs))]),
		value.NewInt(int64(rng.Intn(41) - 20)),
		value.NewFloat(float64(rng.Intn(200)-100) / 4),
		value.NewBool(rng.Intn(2) == 0),
		value.NewInt(int64(i % fuzzManyGroups)),
		value.NewString(fmt.Sprintf("key-%d", i%fuzzManyGroups)),
	}
	if rng.Intn(8) == 0 {
		row[3] = value.Null
	}
	switch rng.Intn(16) {
	case 0, 1:
		row[4] = value.Null
	case 2:
		row[4] = value.NewFloat(math.Copysign(0, -1))
	}
	if rng.Intn(12) == 0 {
		row[rng.Intn(3)] = value.Null
	}
	return row
}

// fuzzResultDiff compares two results exactly — same columns, rows, order,
// value kinds, float signs — and returns "" when identical.
func fuzzResultDiff(a, b *Result) string {
	if len(a.Columns) != len(b.Columns) {
		return fmt.Sprintf("column count %d vs %d", len(a.Columns), len(b.Columns))
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("row count %d vs %d", len(a.Rows), len(b.Rows))
	}
	for ri := range a.Rows {
		for ci := range a.Rows[ri] {
			va, vb := a.Rows[ri][ci], b.Rows[ri][ci]
			switch {
			case va.IsNull() != vb.IsNull():
				return fmt.Sprintf("row %d col %d: %v vs %v", ri, ci, va, vb)
			case va.IsNull():
			case va.Kind() != vb.Kind() || value.Compare(va, vb) != 0 ||
				va.Kind() == value.KindFloat && math.Signbit(va.Float()) != math.Signbit(vb.Float()):
				return fmt.Sprintf("row %d col %d: %v (%v) vs %v (%v)", ri, ci, va, va.Kind(), vb, vb.Kind())
			}
		}
	}
	return ""
}

// FuzzBatchFoldEquivalence proves the fold operator ≡ the reference fold: a
// seeded random typed table (NULLs included) runs one aggregation query
// through the oracle at P=1 and through the operator at a fuzzed
// parallelism; results must be byte-identical and errors must match exactly.
// The query runs three times, the VARCHAR columns' dictionaries moving in
// between: d3 holds the empty string beside its NULLs from the start; then
// rows of new strings are appended and rolled back (TruncateTo), and an
// INSERT and an UPDATE add strings; then a DELETE leaves strings no row has.
func FuzzBatchFoldEquivalence(f *testing.F) {
	for q := range fuzzFoldQueries {
		f.Add(int64(q)*7919+1, uint16(900+137*q), uint8(q), uint8(q%3))
	}
	f.Add(int64(-42), uint16(0), uint8(0), uint8(2))     // empty-ish table
	f.Add(int64(1234), uint16(3000), uint8(5), uint8(1)) // many batches, erroring pred
	for q := range fuzzManyGroupQueries {                // every group in two or three batches, at P = 1, 2 and 8
		for par := uint8(0); par < 3; par++ {
			f.Add(int64(q)+77, uint16(7900+q), uint8(len(fuzzFoldQueries)-len(fuzzManyGroupQueries)+q), par)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, q uint8, par uint8) {
		rows := int(n) % 8000
		rng := rand.New(rand.NewSource(seed))
		cat := storage.NewCatalog()
		tab, err := cat.Create("f", fuzzFoldSchema)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			row := fuzzFoldRow(rng, i)
			if rng.Intn(10) == 0 {
				row[2] = value.NewString("")
			}
			if _, err := tab.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		sql := fuzzFoldQueries[int(q)%len(fuzzFoldQueries)]
		p := []int{1, 2, 8}[int(par)%3]

		e := New(cat)
		compare := func(step string) {
			UseReference(e, true)
			ref, refErr := e.ExecSQLCtxP(context.Background(), sql, 1)
			UseReference(e, false)
			got, gotErr := e.ExecSQLCtxP(context.Background(), sql, p)

			if (refErr == nil) != (gotErr == nil) {
				t.Fatalf("%s, %s: scalar err=%v, batch P=%d err=%v", sql, step, refErr, p, gotErr)
			}
			if refErr != nil {
				if refErr.Error() != gotErr.Error() {
					t.Fatalf("%s, %s: scalar error %q, batch P=%d error %q", sql, step, refErr, p, gotErr)
				}
				return
			}
			if diff := fuzzResultDiff(ref, got); diff != "" {
				t.Fatalf("%s, %s: batch P=%d diverges from scalar: %s", sql, step, p, diff)
			}
		}
		compare("as loaded")

		fresh := func() string { return fmt.Sprint("new-", rng.Intn(1000)) }
		for k := rng.Intn(40); k > 0; k-- {
			row := fuzzFoldRow(rng, rows+k)
			row[2], row[7] = value.NewString(fresh()), value.NewString(fresh())
			if _, err := tab.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		tab.TruncateTo(rows)
		mustExec(t, e, fmt.Sprintf("INSERT INTO f VALUES (%d, 1, '%s', 5, 1.5, TRUE, 1, ''), (NULL, 2, '', NULL, NULL, NULL, 2, '%s'), (3, 0, NULL, -2, 0.5, FALSE, 3, NULL)",
			rng.Intn(5), fresh(), fresh()))
		mustExec(t, e, fmt.Sprintf("UPDATE f SET d3 = '%s' WHERE d1 = %d", fresh(), rng.Intn(5)))
		mustExec(t, e, fmt.Sprintf("UPDATE f SET s = '%s', d3 = NULL WHERE a = %d", fresh(), rng.Intn(41)-20))
		compare("after appends, a rollback and updates")

		mustExec(t, e, fmt.Sprintf("DELETE FROM f WHERE d2 = %d OR d3 = ''", rng.Intn(3)))
		compare("after a delete")
	})
}
