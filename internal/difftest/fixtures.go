package difftest

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/value"
)

// The fixtures the differential suites share — here and in the engine's own
// tests, which run the oracle comparisons.

// MustExec runs sql on e, failing the test on an error.
func MustExec(t *testing.T, e *engine.Engine, sql string) {
	t.Helper()
	if _, err := e.ExecSQL(sql); err != nil {
		t.Fatalf("ExecSQL(%s): %v", sql, err)
	}
}

// GoldenPlanner loads the paper's Table 1 running example plus the
// store/day table the horizontal examples use (store 4 closed on Monday —
// a missing combination).
func GoldenPlanner(t *testing.T) *core.Planner {
	t.Helper()
	eng := engine.New(storage.NewCatalog())
	MustExec(t, eng, `CREATE TABLE sales (RID INTEGER, state VARCHAR, city VARCHAR, salesAmt INTEGER)`)
	MustExec(t, eng, `INSERT INTO sales VALUES
		(1, 'CA', 'San Francisco', 13),
		(2, 'CA', 'San Francisco', 3),
		(3, 'CA', 'San Francisco', 67),
		(4, 'CA', 'Los Angeles', 23),
		(5, 'TX', 'Houston', 5),
		(6, 'TX', 'Houston', 35),
		(7, 'TX', 'Houston', 10),
		(8, 'TX', 'Houston', 14),
		(9, 'TX', 'Dallas', 53),
		(10, 'TX', 'Dallas', 32)`)
	MustExec(t, eng, `CREATE TABLE daily (store INTEGER, dweek VARCHAR, salesAmt INTEGER)`)
	MustExec(t, eng, `INSERT INTO daily VALUES
		(2,'Mo',7),(2,'Tu',6),(2,'We',8),(2,'Th',9),(2,'Fr',16),(2,'Sa',24),(2,'Su',30),
		(4,'Tu',9),(4,'We',9),(4,'Th',9),(4,'Fr',18),(4,'Sa',20),(4,'Su',35)`)
	return core.NewPlanner(eng)
}

// RandTableRows generates the random fact-table rows the property tests
// use: small dimension cardinalities, signed integer measures (zero totals
// happen), NULLs in measures and dimensions.
func RandTableRows(rng *rand.Rand, n int) [][]value.Value {
	strs := []string{"x", "y", "z"}
	rows := make([][]value.Value, 0, n)
	for i := 0; i < n; i++ {
		row := []value.Value{
			value.NewInt(int64(rng.Intn(3))),
			value.NewInt(int64(rng.Intn(4))),
			value.NewString(strs[rng.Intn(3)]),
			value.NewInt(int64(rng.Intn(21) - 5)),
		}
		if rng.Intn(20) == 0 {
			row[3] = value.Null
		}
		if rng.Intn(30) == 0 {
			row[rng.Intn(3)] = value.Null
		}
		rows = append(rows, row)
	}
	return rows
}

var RandSchema = storage.Schema{
	{Name: "d1", Type: storage.TypeInt},
	{Name: "d2", Type: storage.TypeInt},
	{Name: "d3", Type: storage.TypeString},
	{Name: "a", Type: storage.TypeInt},
}

// PlannerFor loads rows into a fresh catalog as table f.
func PlannerFor(t *testing.T, rows [][]value.Value) *core.Planner {
	t.Helper()
	cat := storage.NewCatalog()
	tab, err := cat.Create("f", RandSchema)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if _, err := tab.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	return core.NewPlanner(engine.New(cat))
}

// Query is one statement a suite runs and the options it is planned under.
type Query struct {
	SQL  string
	Opts core.Options
}

// PropertyQueries are the eight shapes the randomized differential test
// sweeps — the same shapes the core property tests pin across strategies.
var PropertyQueries = []Query{
	{"SELECT d1, d2, Vpct(a BY d2) FROM f GROUP BY d1, d2", core.DefaultOptions()},
	{"SELECT d1, d2, d3, Vpct(a BY d2, d3) FROM f GROUP BY d1, d2, d3", core.Options{Vpct: core.VpctOptions{FjFromF: true}}},
	{"SELECT d3, Vpct(a) FROM f GROUP BY d3", core.Options{Vpct: core.VpctOptions{UseUpdate: true}}},
	{"SELECT d1, d2, Vpct(a BY d2), sum(a), count(*) FROM f GROUP BY d1, d2", core.DefaultOptions()},
	{"SELECT d1, Hpct(a BY d2) FROM f GROUP BY d1", core.Options{}},
	{"SELECT d1, Hpct(a BY d2), sum(a), max(a) FROM f GROUP BY d1", core.Options{Hpct: core.HpctOptions{FromFV: true}}},
	{"SELECT d1, sum(a BY d2, d3), count(*) FROM f GROUP BY d1", core.Options{Hagg: core.HaggOptions{Method: core.HaggCASE}}},
	{"SELECT d1, min(a BY d3), max(a BY d3) FROM f GROUP BY d1", core.Options{Hagg: core.HaggOptions{Method: core.HaggSPJ}}},
}
