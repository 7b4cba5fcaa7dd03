package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/diag"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
)

// windowEngine loads w: three partitions d of 5 000 rows each in mixed order,
// a REAL measure x whose magnitudes differ enough that the order of addition
// shows in the last bits of a sum, a second partition column s, a
// 100-valued column k, and a one-row-per-d table dim to join against.
func windowEngine(t testing.TB) *Engine {
	t.Helper()
	e := New(storage.NewCatalog())
	for _, sql := range []string{
		"CREATE TABLE w (d INTEGER, s VARCHAR, k INTEGER, x REAL)",
		"CREATE TABLE dim (dd INTEGER, name VARCHAR)",
		"INSERT INTO dim VALUES (0, 'zero'), (1, 'one'), (2, 'two')",
	} {
		if _, err := e.ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	tab, _ := e.Catalog().Get("w")
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 15_000; i++ {
		x := value.NewFloat(rng.Float64() * math.Pow(10, float64(rng.Intn(9))))
		if i%97 == 0 {
			x = value.Null
		}
		if _, err := tab.AppendRow([]value.Value{
			value.NewInt(int64(i % 3)), value.NewString(string(rune('a' + rng.Intn(4)))), value.NewInt(int64(rng.Intn(100))), x,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// sameBits fails unless the two results hold the same cells, REAL cells
// compared bit for bit.
func sameBits(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for i, row := range got.Rows {
		for j, v := range row {
			o := want.Rows[i][j]
			same := v.Kind() == o.Kind() && v.IsNull() == o.IsNull() && value.Compare(v, o) == 0
			if same && v.Kind() == value.KindFloat {
				same = math.Float64bits(v.Float()) == math.Float64bits(o.Float())
			}
			if !same {
				t.Fatalf("%s: row %d column %d: window %v (%v), GROUP BY %v (%v)", label, i, j, v, v.Kind(), o, o.Kind())
			}
		}
	}
}

// TestWindowSumMatchesGroupBy: a window aggregate is the fold GROUP BY runs,
// keyed on the partition columns, so it computes what GROUP BY computes — the
// last bits of a REAL sum included — on the fold operator and on the reference
// fold, at any parallelism.
func TestWindowSumMatchesGroupBy(t *testing.T) {
	e := windowEngine(t)
	defer UseReference(e, false)
	// No derived tables: the two GROUP BYs of the two-list case meet in a join
	// of temp tables, rebuilt under each mode.
	twoLists := []string{
		"DROP TABLE IF EXISTS wds", "DROP TABLE IF EXISTS wd",
		"CREATE TABLE wds (d INTEGER, s VARCHAR, t REAL)", "CREATE TABLE wd (d INTEGER, t REAL)",
		"INSERT INTO wds SELECT d, s, sum(x) FROM w GROUP BY d, s",
		"INSERT INTO wd SELECT d, sum(x) FROM w GROUP BY d",
	}
	for _, q := range []struct {
		name, window, groupBy string
		setup                 []string
	}{
		{name: "sum",
			window:  "SELECT DISTINCT d, sum(x) OVER (PARTITION BY d) FROM w ORDER BY d",
			groupBy: "SELECT d, sum(x) FROM w GROUP BY d ORDER BY d"},
		{name: "global",
			window:  "SELECT DISTINCT sum(x) OVER () FROM w",
			groupBy: "SELECT sum(x) FROM w"},
		{name: "two windows, one list",
			window:  "SELECT DISTINCT d, sum(x) OVER (PARTITION BY d), count(x) OVER (PARTITION BY d) FROM w ORDER BY d",
			groupBy: "SELECT d, sum(x), count(x) FROM w GROUP BY d ORDER BY d"},
		{name: "two lists", setup: twoLists,
			window:  "SELECT DISTINCT d, s, sum(x) OVER (PARTITION BY d, s), sum(x) OVER (PARTITION BY d) FROM w ORDER BY d, s",
			groupBy: "SELECT f.d, f.s, f.t, g.t FROM wds f, wd g WHERE f.d = g.d ORDER BY d, s"},
		{name: "count(*), min, count(DISTINCT)",
			window:  "SELECT DISTINCT s, count(*) OVER (PARTITION BY s), min(x) OVER (PARTITION BY s), count(DISTINCT k) OVER (PARTITION BY s) FROM w ORDER BY s",
			groupBy: "SELECT s, count(*), min(x), count(DISTINCT k) FROM w GROUP BY s ORDER BY s"},
		{name: "join-fed",
			window:  "SELECT DISTINCT name, sum(x) OVER (PARTITION BY name), avg(x) OVER (PARTITION BY name) FROM w, dim WHERE d = dd ORDER BY name",
			groupBy: "SELECT name, sum(x), avg(x) FROM w, dim WHERE d = dd GROUP BY name ORDER BY name"},
	} {
		for _, batch := range []bool{true, false} {
			for _, par := range []int{1, 2, 8} {
				UseReference(e, !batch)
				label := fmt.Sprintf("%s batch=%v P=%d", q.name, batch, par)
				var got, want *Result
				var err error
				for _, sql := range q.setup {
					if _, err = e.ExecSQLCtxP(context.Background(), sql, par); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
				if got, err = e.ExecSQLCtxP(context.Background(), q.window, par); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if want, err = e.ExecSQLCtxP(context.Background(), q.groupBy, par); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameBits(t, label, got, want)
			}
		}
	}
}

// TestWindowFoldsOncePerPartitionList reads the window stage's span subtree:
// the windows over one PARTITION BY list share one fold, each further list
// adds one, and a parallel statement fans each out.
func TestWindowFoldsOncePerPartitionList(t *testing.T) {
	e := windowEngine(t)
	var root *obs.Span
	count := func(sql string, par int, name string) int {
		t.Helper()
		root = obs.NewSpan("test")
		_, err := e.ExecSQLCtxIn(context.Background(), sql, par, root)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		win := root.Find("window")
		if win == nil {
			t.Fatalf("no window span:\n%s", root.Format())
		}
		n := 0
		for _, c := range win.Children {
			if c.Name == name {
				n++
			}
		}
		return n
	}
	one := "SELECT d, sum(x) OVER (PARTITION BY d), count(*) OVER (PARTITION BY d), min(x) OVER (PARTITION BY d) FROM w"
	two := "SELECT d, sum(x) OVER (PARTITION BY d), sum(x) OVER (PARTITION BY s), count(*) OVER (PARTITION BY d) FROM w"
	if n := count(one, 1, "fold"); n != 1 {
		t.Errorf("three windows over one list ran %d folds, want 1:\n%s", n, root.Format())
	}
	if n := count(two, 1, "fold"); n != 2 {
		t.Errorf("windows over two lists ran %d folds, want 2:\n%s", n, root.Format())
	}
	if fans, merges := count(one, 2, "partition fan-out"), count(one, 2, "merge"); fans != 1 || merges != 1 {
		t.Errorf("P=2: %d fan-outs and %d merges under window, want 1 and 1:\n%s", fans, merges, root.Format())
	}
	UseReference(e, true)
	defer UseReference(e, false)
	if n := count(two, 2, "fold"); n != 2 {
		t.Errorf("reference fold: %d folds, want 2:\n%s", n, root.Format())
	}
	if un := root.Unclosed(); len(un) > 0 {
		t.Errorf("unclosed spans: %v\n%s", un, root.Format())
	}
}

// TestWindowGoverned: window partitions are aggregation groups (MaxGroups),
// and the window's input is materialized — and charged against MaxRows —
// once, however many workers fold it.
func TestWindowGoverned(t *testing.T) {
	e := windowEngine(t)
	run := func(sql string, par int, lim Limits) error {
		_, err := e.ExecSQLCtxP(WithLimits(context.Background(), lim), sql, par)
		return err
	}
	var le *LimitError
	byK := "SELECT k, sum(x) OVER (PARTITION BY k) FROM w"
	for _, par := range []int{1, 8} {
		if err := run(byK, par, Limits{MaxGroups: 50}); !errors.As(err, &le) || le.Code() != diag.CodeGroupLimit {
			t.Errorf("P=%d: 100 partitions under MaxGroups 50: err = %v, want %s", par, err, diag.CodeGroupLimit)
		}
		// 15 000 input rows materialized, 100 group rows, 15 000 result rows.
		if err := run(byK, par, Limits{MaxGroups: 1000, MaxRows: 30_100}); err != nil {
			t.Errorf("P=%d: MaxRows 30 100: %v", par, err)
		}
		if err := run(byK, par, Limits{MaxRows: 29_999}); !errors.As(err, &le) || le.Code() != diag.CodeRowLimit {
			t.Errorf("P=%d: MaxRows 29 999: err = %v, want %s", par, err, diag.CodeRowLimit)
		}
	}
}
