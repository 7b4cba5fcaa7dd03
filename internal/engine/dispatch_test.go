package engine

import (
	"testing"

	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// TestDispatchRecogniser lists, shape by shape, which aggregate arguments the
// fold dispatches and which stay ordinary specs: want is the EXPLAIN
// rendering of the arm families (dispatchColumns), "" for none.
func TestDispatchRecogniser(t *testing.T) {
	sch := schemaOf(mustTable(t, storage.Schema{
		{Name: "d", Type: storage.TypeInt},
		{Name: "e", Type: storage.TypeInt},
		{Name: "s", Type: storage.TypeString},
		{Name: "c", Type: storage.TypeBool},
		{Name: "x", Type: storage.TypeFloat},
		{Name: "a", Type: storage.TypeInt},
	}), "")
	cases := []struct{ name, aggs, want string }{
		{"Hpct cell: ELSE 0 under sum", "sum(CASE WHEN d = 1 THEN a ELSE 0 END), sum(CASE WHEN d = 2 THEN a ELSE 0 END)", "(d) arms=2"},
		{"Hagg terms: ELSE NULL and no ELSE under any aggregate", "sum(CASE WHEN d = 1 THEN a ELSE NULL END), min(CASE WHEN d = 1 THEN a END), avg(CASE WHEN d = 2 THEN a END), count(CASE WHEN d = 2 THEN 1 END)", "(d) arms=4"},
		{"IS NULL arm and a negative constant", "sum(CASE WHEN d IS NULL THEN a ELSE 0 END), sum(CASE WHEN d = -4 THEN a ELSE 0 END)", "(d) arms=2"},
		{"ELSE -0 is ELSE 0", "sum(CASE WHEN d = 1 THEN a ELSE -0 END)", "(d) arms=1"},
		{"conjunction over two columns, constant on the left", "sum(CASE WHEN d = 1 AND 2 = e THEN a ELSE 0 END), sum(CASE WHEN d = 1 AND e IS NULL THEN a ELSE 0 END)", "(d, e) arms=2"},
		{"VARCHAR and BOOLEAN constants", "sum(CASE WHEN s = 'x' AND c = TRUE THEN a ELSE 0 END)", "(s, c) arms=1"},
		{"one family per column list, order included", "sum(CASE WHEN d = 1 THEN a ELSE 0 END), sum(CASE WHEN d = 1 AND e = 2 THEN a ELSE 0 END), sum(CASE WHEN e = 2 AND d = 1 THEN a ELSE 0 END)", "(d) arms=1, (d, e) arms=1, (e, d) arms=1"},
		{"computed THEN", "sum(CASE WHEN d = 1 THEN a * 2 + e ELSE 0 END)", "(d) arms=1"},
		{"an arm beside ordinary specs", "sum(a), count(*), sum(CASE WHEN d = 1 THEN a ELSE 0 END), max(a + e)", "(d) arms=1"},

		{"OR", "sum(CASE WHEN d = 1 OR d = 2 THEN a ELSE 0 END)", ""},
		{"IS NOT NULL", "sum(CASE WHEN d IS NOT NULL THEN a ELSE 0 END)", ""},
		{"inequality", "sum(CASE WHEN d > 1 THEN a ELSE 0 END)", ""},
		{"cross-kind literal", "sum(CASE WHEN d = 1.0 THEN a ELSE 0 END), sum(CASE WHEN d = '1' THEN a ELSE 0 END), sum(CASE WHEN x = 1 THEN a ELSE 0 END)", ""},
		{"FLOAT dimension", "sum(CASE WHEN x = 1.5 THEN a ELSE 0 END)", ""},
		{"NULL literal", "sum(CASE WHEN d = NULL THEN a ELSE 0 END)", ""},
		{"column compared to a column", "sum(CASE WHEN d = e THEN a ELSE 0 END)", ""},
		{"one column twice", "sum(CASE WHEN d = 1 AND d = 2 THEN a ELSE 0 END)", ""},
		{"non-zero, FLOAT-zero and computed ELSE", "sum(CASE WHEN d = 1 THEN a ELSE 1 END), sum(CASE WHEN d = 1 THEN a ELSE 0.0 END), sum(CASE WHEN d = 1 THEN a ELSE e END), sum(CASE WHEN d = 1 THEN a ELSE 0 + 0 END)", ""},
		{"ELSE 0 under another aggregate", "count(CASE WHEN d = 1 THEN a ELSE 0 END), min(CASE WHEN d = 1 THEN a ELSE 0 END), avg(CASE WHEN d = 1 THEN a ELSE 0 END)", ""},
		{"DISTINCT", "count(DISTINCT CASE WHEN d = 1 THEN a END)", ""},
		{"two WHENs", "sum(CASE WHEN d = 1 THEN a WHEN d = 2 THEN e ELSE 0 END)", ""},
		{"CASE inside arithmetic", "sum(1 * CASE WHEN d = 1 THEN a ELSE 0 END)", ""},
	}
	for _, c := range cases {
		stmt, err := sqlparse.Parse("SELECT " + c.aggs + " FROM f")
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		specs, _, err := collectAggSpecs(stmt.(*sqlparse.Select).Items, nil, sch)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := dispatchColumns(specs, sch); got != c.want {
			t.Errorf("%s: dispatch = %q, want %q", c.name, got, c.want)
		}
	}
}

func mustTable(t *testing.T, sch storage.Schema) *storage.Table {
	t.Helper()
	tab, err := storage.NewCatalog().Create("f", sch)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}
