package pctagg

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// raceEnabled is set by race_test.go under -race, where instrumentation
// changes allocation counts.
var raceEnabled bool

// TestVpctStatementAllocBudget is the whole-statement budget of ROADMAP item
// 2: a 4-key Vpct over 50 k rows whose result has 5 000 rows, through Query —
// parse, plan, seven generated steps, final select, conversion. Every
// intermediate lives in its temp table's column vectors, and the result stays
// in typed columns until Query converts them to Rows, with no value.Value in
// between, so what is left per result row is the interface box of its REAL
// percentage (the small INTEGER keys box for free) plus the rows' share of
// slab and vector growth: 5 970 allocations measured, 1.19 per result row
// (5 973 when the result was boxed into value.Value rows first, a cost in
// bytes and time rather than objects; 1.48 per row with a Go map of group
// objects per fold; 13.6 with the boxed-row dataflow), the budget what it
// was.
func TestVpctStatementAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	db := Open()
	tab, err := db.Engine().Catalog().Create("f", storage.Schema{
		{Name: "d1", Type: storage.TypeInt}, {Name: "d2", Type: storage.TypeInt},
		{Name: "d3", Type: storage.TypeInt}, {Name: "d4", Type: storage.TypeInt},
		{Name: "a", Type: storage.TypeInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50_000; i++ {
		g := int64(i % 5000) // every combination of 10 x 10 x 10 x 5 occurs
		tab.AppendRow([]value.Value{value.NewInt(g % 10), value.NewInt(g / 10 % 10), value.NewInt(g / 100 % 10),
			value.NewInt(g / 1000), value.NewInt(int64(1 + i%97))})
	}
	const q = "SELECT d1, d2, d3, d4, Vpct(a BY d3, d4) FROM f GROUP BY d1, d2, d3, d4"
	var rows *Rows
	allocs := testing.AllocsPerRun(5, func() {
		if rows, err = db.Query(q); err != nil {
			t.Fatal(err)
		}
	})
	if len(rows.Data) != 5000 {
		t.Fatalf("%d result rows, want 5000", len(rows.Data))
	}
	if perRow := allocs / 5000; perRow > 1.6 {
		t.Errorf("4-key Vpct made %.0f allocations for 5000 result rows (%.2f per row), budget 1.6 per row", allocs, perRow)
	}
	t.Logf("%.0f allocations, %.2f per result row", allocs, allocs/5000)
}

// TestResultConvertAllocBudget: converting a result's typed columns to Rows
// costs a constant — the slab, the row headers, a VARCHAR column's memo — plus
// one interface box per REAL cell (small INTEGERs box for free) and one per
// distinct string, never one per VARCHAR cell. The result is Vpct's answer at
// the size of the benchmark's vpct_q8: 42 000 rows of four INTEGER keys below
// 256 and a REAL, here with a VARCHAR column of 21 strings beside it.
func TestResultConvertAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	db := Open()
	if _, err := db.Exec("CREATE TABLE fv (d1 INTEGER, d2 INTEGER, d3 INTEGER, d4 INTEGER, pct REAL, s VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	rows := make([][]any, 0, 42_000)
	for k := 0; k < 42_000; k++ {
		rows = append(rows, []any{int64(k % 7), int64(k / 7 % 12), int64(k / 84 % 50), int64(k / 4200), float64(1+k%997) / 1000, fmt.Sprint("s", k%21)})
	}
	if err := db.InsertRows("fv", rows); err != nil {
		t.Fatal(err)
	}
	const constant = 8
	for _, c := range []struct {
		sql   string
		boxes int // allocations the cells may make
	}{
		{"SELECT d1, d2, d3, d4, pct FROM fv", 42_000},
		{"SELECT d1, s FROM fv", 21},
	} {
		res, err := db.eng.ExecSQLCtxIn(context.Background(), c.sql, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() { toRows(res) })
		if allocs > float64(c.boxes+constant) {
			t.Errorf("%s: converting 42 000 rows made %.0f allocations, budget %d", c.sql, allocs, c.boxes+constant)
		}
		t.Logf("%s: %.0f allocations", c.sql, allocs)
	}
}
