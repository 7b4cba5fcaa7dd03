package pctagg

import (
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
// intermediate lives in its temp table's column vectors and the result is
// boxed once, so what is left per result row is the interface box of its
// REAL percentage (the small INTEGER keys box for free) plus the rows' share
// of slab and vector growth: 7 230 allocations measured, 1.45 per result row
// (1.48 with a Go map of group objects per fold; 13.6 with the boxed-row
// dataflow), the budget 10 % above.
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
