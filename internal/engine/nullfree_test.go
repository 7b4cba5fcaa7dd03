package engine_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/value"
)

// nullFreeSchema is TestDifferentialBatchNullFree's table: id and g are never
// NULL; every other column takes the variant's NULL. k, s and b are keys of
// the direct route, r — whose zero is -0.0 on some rows — one of the hash
// route, d a dimension for CASE arms; a and x are measures, z a REAL measure
// whose groups g = 0, 1 hold only -0.0 and g = 2 starts at -0.0, y one whose
// groups g = 3, 4, 5 meet +Inf, both infinities and NaN.
var nullFreeSchema = storage.Schema{
	{Name: "id", Type: storage.TypeInt}, {Name: "g", Type: storage.TypeInt},
	{Name: "k", Type: storage.TypeInt}, {Name: "s", Type: storage.TypeString},
	{Name: "b", Type: storage.TypeBool}, {Name: "r", Type: storage.TypeFloat},
	{Name: "d", Type: storage.TypeInt}, {Name: "a", Type: storage.TypeInt},
	{Name: "x", Type: storage.TypeFloat}, {Name: "z", Type: storage.TypeFloat},
	{Name: "y", Type: storage.TypeFloat},
}

// nullFreeRows is how many rows the table holds: past row 1024, so a NULL at
// 1023 and at 1024 sit either side of a batch's and a bitmap word's edge.
const nullFreeRows = 1100

// nullFreeRow is row i of the table, NULL in every nullable column when null
// is set. Every REAL value is a multiple of 0.25 of small magnitude, so sums
// are exact in any order and the partitioned folds agree to the bit.
func nullFreeRow(i int, null bool) []value.Value {
	g := i % 7
	r := float64(i%5)*0.5 - 1
	if i%10 == 7 {
		r = math.Copysign(0, -1)
	}
	z := float64(i%9) * 0.25
	if g <= 1 || g == 2 && i < 700 {
		z = math.Copysign(0, -1)
	}
	y := float64((i*31)%200)*0.25 - 25
	switch {
	case g == 3 && i%100 == 3, g == 4 && i%200 == 4:
		y = math.Inf(1)
	case g == 4 && i%200 == 104:
		y = math.Inf(-1)
	case g == 5 && i%300 == 5:
		y = math.NaN()
	}
	row := []value.Value{
		value.NewInt(int64(i)), value.NewInt(int64(g)),
		value.NewInt(int64(i%13 - 6)), value.NewString(string(rune('p' + i%4))),
		value.NewBool(i%3 == 0), value.NewFloat(r),
		value.NewInt(int64(i % 4)), value.NewInt(int64((i*7919)%1000 - 500)),
		value.NewFloat(float64((i*37)%200)*0.25 - 25), value.NewFloat(z),
		value.NewFloat(y),
	}
	for c := 2; null && c < len(row); c++ {
		row[c] = value.Null
	}
	return row
}

// TestDifferentialBatchNullFree: the fold's key readers and typed kernels
// take a loop without the NULL test when a column's bitmap holds no NULL, and
// one loop per aggregate function. Over one table in several variants — no
// NULL, a single NULL row at each edge of a bitmap word and of a batch, a
// NULL an UPDATE cleared, one an INSERT left behind when it rolled back, one
// whose row was DELETEd — every typed aggregate, every key route, an Hpct arm
// family and DISTINCT agree with the oracle at P ∈ {1, 2, 8}, to the sign of a
// REAL zero.
func TestDifferentialBatchNullFree(t *testing.T) {
	variants := []struct {
		name       string
		null       int    // the row NULL in every nullable column; -1: none
		after      string // a statement run once the rows are in
		rolledBack bool   // a NULL row appended and truncated away again
	}{
		{name: "no NULL", null: -1},
		{name: "NULL at row 0", null: 0},
		{name: "NULL at row 63", null: 63},
		{name: "NULL at row 64", null: 64},
		{name: "NULL at row 1023", null: 1023},
		{name: "NULL at row 1024", null: 1024},
		{name: "NULL at the last row", null: nullFreeRows - 1},
		{name: "NULL cleared by UPDATE", null: 500,
			after: "UPDATE t SET k = 1, s = 'q', b = TRUE, r = 0.5, d = 2, a = 7, x = 1.25, z = -0.0, y = 2.5 WHERE id = 500"},
		{name: "NULL row DELETEd", null: 500, after: "DELETE FROM t WHERE id = 500"},
		{name: "NULL row rolled back", null: -1, rolledBack: true},
	}
	queries := []struct{ sql, route string }{
		{"SELECT g, sum(a), min(a), max(a), count(a), count(*), avg(a) FROM t GROUP BY g", "direct"},
		{"SELECT g, sum(x), min(x), max(x), count(x), avg(x) FROM t GROUP BY g", "direct"},
		{"SELECT g, sum(z), sum(y), min(y), max(y), count(y) FROM t GROUP BY g", "direct"},
		{"SELECT sum(a), min(x), max(a), count(k), count(*), sum(z), sum(y) FROM t", ""},
		{"SELECT g, k, sum(a), max(x), count(*) FROM t GROUP BY g, k", "direct"},
		{"SELECT g, b, sum(x), min(a), count(b) FROM t GROUP BY g, b", "direct"},
		{"SELECT s, g, sum(a), count(s) FROM t GROUP BY s, g", "direct"},
		{"SELECT k, s, b, max(x), sum(z), count(x) FROM t GROUP BY k, s, b", "direct"},
		{"SELECT r, sum(a), sum(x), min(x) FROM t GROUP BY r", "hash"},
		{"SELECT g, r, count(*), max(a) FROM t GROUP BY g, r", "hash"},
		{"SELECT r, k, b, s, count(*), max(a) FROM t GROUP BY r, k, b, s", "hash"},
		{"SELECT r, g, k, b, s, count(*) FROM t GROUP BY r, g, k, b, s", "hash"},
		{"SELECT g, Hpct(a BY d) FROM t GROUP BY g", "direct"},
		{"SELECT g, Hpct(x BY s, b) FROM t GROUP BY g", "direct"},
		{"SELECT g, sum(CASE WHEN d = 1 THEN x ELSE 0 END), sum(CASE WHEN d = 2 THEN a END), min(CASE WHEN d = 3 THEN a END), max(CASE WHEN d IS NULL THEN x END), count(CASE WHEN d = 0 THEN y END) FROM t GROUP BY g", "direct"},
		{"SELECT k, Vpct(x) FROM t GROUP BY k", ""},
		{"SELECT DISTINCT k, s, b FROM t", ""},
		{"SELECT DISTINCT r, b FROM t", ""},
		{"SELECT g, count(DISTINCT k), count(DISTINCT r) FROM t GROUP BY g", ""},
	}
	for _, v := range variants {
		cat := storage.NewCatalog()
		tab, err := cat.Create("t", nullFreeSchema)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nullFreeRows; i++ {
			if _, err := tab.AppendRow(nullFreeRow(i, i == v.null)); err != nil {
				t.Fatal(err)
			}
		}
		if v.rolledBack {
			if _, err := tab.AppendRow(nullFreeRow(nullFreeRows, true)); err != nil {
				t.Fatal(err)
			}
			tab.TruncateTo(nullFreeRows)
		}
		p := core.NewPlanner(engine.New(cat))
		if v.after != "" {
			if _, err := p.Eng.ExecSQL(v.after); err != nil {
				t.Fatalf("%s: %v", v.name, err)
			}
		}
		for _, q := range queries {
			if err := CompareBatch(p, q.sql, core.Options{}, difftest.Parallelisms); err != nil {
				t.Errorf("%s: %v", v.name, err)
			}
			if q.route != "" {
				checkKeyRoute(t, p, q.sql, core.Options{}, q.route)
			}
		}
	}
	// The rule itself, not only agreement with the reference: a REAL sum of
	// -0.0 alone is -0.0, and one that met +0.0 is +0.0.
	p := core.NewPlanner(engine.New(storage.NewCatalog()))
	if _, err := p.Eng.ExecSQL("CREATE TABLE w (g INTEGER, z REAL); INSERT INTO w VALUES (1, -0.0), (1, -0.0), (2, -0.0), (2, 0.0), (3, NULL)"); err != nil {
		t.Fatal(err)
	}
	res, err := difftest.Run(p, "SELECT g, sum(z) FROM w GROUP BY g", core.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got string
	for _, row := range res.Rows {
		got += fmt.Sprintf(" %v:%v/%v", row[0], row[1], row[1].Kind() == value.KindFloat && math.Signbit(row[1].Float()))
	}
	if want := " 1:-0/true 2:0/false 3:NULL/false"; got != want {
		t.Errorf("REAL sums of zeros:%s, want%s", got, want)
	}
}
