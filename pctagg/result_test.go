package pctagg

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/sqlparse"
)

// checkConverts reports where toRows, reading the result's typed columns,
// differs from fromValue over the rows Box makes of them, cell for cell.
func checkConverts(t *testing.T, label string, res *engine.Result) {
	t.Helper()
	got := toRows(res).Data
	var want [][]any
	for _, row := range res.Box().Rows {
		conv := make([]any, len(row))
		for j, v := range row {
			conv[j] = fromValue(v)
		}
		want = append(want, conv)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\ntoRows %v\nboxed  %v", label, got, want)
	}
}

// TestToRowsIsBoxedRows runs the differential corpora — the property shapes
// over random tables and the paper's running examples — through the planner
// entry that leaves the result unboxed.
func TestToRowsIsBoxedRows(t *testing.T) {
	run := func(p *core.Planner, sql string, opts core.Options) {
		plan, err := p.PlanSQL(sql, opts)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		res, _, err := p.ExecuteTyped(context.Background(), plan, false)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		checkConverts(t, sql, res)
	}
	for seed := int64(1); seed <= 3; seed++ {
		p := difftest.PlannerFor(t, difftest.RandTableRows(rand.New(rand.NewSource(seed)), 300))
		for _, q := range difftest.PropertyQueries {
			run(p, q.SQL, q.Opts)
		}
	}
	p := difftest.GoldenPlanner(t)
	for _, sql := range []string{
		"SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city",
		"SELECT state, Vpct(salesAmt) FROM sales GROUP BY state",
		"SELECT store, Hpct(salesAmt BY dweek) FROM daily GROUP BY store",
		"SELECT state, sum(salesAmt BY city), count(*) FROM sales GROUP BY state",
	} {
		run(p, sql, core.DefaultOptions())
	}
}

// TestToRowsHandSet covers what the corpora may not: every column type, a
// column of NULLs only, a CASE of mixed kinds, VARCHAR columns drawn from two
// tables' dictionaries, a small result of a large dictionary, no rows at
// all, and EXPLAIN.
func TestToRowsHandSet(t *testing.T) {
	db := Open()
	if _, err := db.Exec(`CREATE TABLE t (i INTEGER, r REAL, s VARCHAR, b BOOLEAN, n INTEGER);
		CREATE TABLE u (k INTEGER, s VARCHAR); CREATE TABLE x (s VARCHAR);
		INSERT INTO u VALUES (1, 'u1'), (2, 'u2'), (3, NULL), (9, 'u9')`); err != nil {
		t.Fatal(err)
	}
	rows := make([][]any, 0, 3000)
	for k := 0; k < 3000; k++ {
		row := []any{int64(k % 5), float64(k) / 8, fmt.Sprint("s", k%23), k%2 == 0, nil}
		if k%13 == 0 {
			row[0], row[1], row[2], row[3] = nil, nil, nil, nil
		}
		rows = append(rows, row)
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE big (id INTEGER, s VARCHAR);
		INSERT INTO x SELECT s FROM t WHERE i = 1; INSERT INTO x SELECT s FROM u`); err != nil {
		t.Fatal(err)
	}
	big := make([][]any, 500)
	for k := range big {
		big[k] = []any{int64(k), fmt.Sprint("big-", k)}
	}
	if err := db.InsertRows("big", big); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT i, r, s, b FROM t",
		"SELECT n, s FROM t ORDER BY s",
		"SELECT CASE WHEN i = 1 THEN s WHEN i = 2 THEN r WHEN i = 3 THEN b ELSE i END FROM t",
		"SELECT CASE WHEN u.s IS NULL THEN t.s ELSE u.s END, u.s FROM t LEFT JOIN u ON t.i = u.k",
		"SELECT s FROM x",
		"SELECT s, id FROM big WHERE id < 3",
		"SELECT s, Vpct(r) FROM t GROUP BY s",
		"SELECT i, b, Vpct(r BY b) FROM t GROUP BY i, b",
		"SELECT i FROM t WHERE i > 100",
		"SELECT i, s FROM t LIMIT 0",
		"EXPLAIN SELECT s, Vpct(r) FROM t GROUP BY s",
		"EXPLAIN SELECT i FROM t",
	} {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		res, err := db.eng.ExecuteCtxIn(context.Background(), stmt, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if res.Rows != nil {
			t.Fatalf("%s: the result came back boxed", sql)
		}
		checkConverts(t, sql, res)
	}
}
