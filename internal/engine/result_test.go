package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// unboxed runs sql through the entry that hands a result's columns on.
func unboxed(t testing.TB, e *Engine, sql string) *Result {
	t.Helper()
	res, err := e.ExecSQLCtxIn(context.Background(), sql, 1, nil)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if res.Rows != nil {
		t.Fatalf("%s: the result came back boxed", sql)
	}
	return res
}

// TestBoxIsEachCellsValue: Box yields, cell for cell and kind for kind, what
// the column's own Value reads — over typed columns of every type, NULLs, a
// column whose batches disagree on kind, a computed VARCHAR column whose
// batches each code into a dictionary of their own, and results of no rows.
func TestBoxIsEachCellsValue(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE t (i INTEGER, r REAL, s VARCHAR, b BOOLEAN, n INTEGER)")
	tab, _ := e.Catalog().Get("t")
	for k := 0; k < 3*batchSize+17; k++ {
		row := []value.Value{value.NewInt(int64(k)), value.NewFloat(float64(k) / 4), value.NewString(fmt.Sprint("s", k%37)),
			value.NewBool(k%3 == 0), value.Null}
		if k%11 == 0 {
			row[1], row[2], row[3] = value.Null, value.Null, value.Null
		}
		if _, err := tab.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		"SELECT i, r, s, b, n FROM t",
		"SELECT s, i FROM t ORDER BY s DESC, i",
		"SELECT s, count(*), sum(r) FROM t GROUP BY s",
		"SELECT CASE WHEN i < 1500 THEN i ELSE s END, CASE WHEN b THEN r END FROM t",
		"SELECT CASE WHEN b THEN s ELSE 'x' END FROM t WHERE i > 100",
		"SELECT DISTINCT b FROM t",
		"SELECT i FROM t WHERE i < 0",
		"SELECT i FROM t LIMIT 0",
		"EXPLAIN SELECT s FROM t",
	} {
		res := unboxed(t, e, q)
		n, vecs := res.Len(), res.Vectors()
		res.Box()
		if len(res.Rows) != n || n == 0 && res.Rows != nil {
			t.Errorf("%s: %d boxed rows of %d", q, len(res.Rows), n)
			continue
		}
		for k, row := range res.Rows {
			for j, got := range row {
				if want := vecs[j].Value(k); got.Kind() != want.Kind() || value.Compare(got, want) != 0 {
					t.Errorf("%s: row %d column %d boxed %v (%v), its vector reads %v (%v)", q, k, j, got, got.Kind(), want, want.Kind())
				}
			}
		}
	}
}

// TestResultStringsOutliveWrites: a result's VARCHAR column shares its source
// table's dictionary, and its strings stay what they were while the table
// grows the dictionary, overwrites its cells and compacts it away.
func TestResultStringsOutliveWrites(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE t (s VARCHAR, a INTEGER); INSERT INTO t VALUES ('x', 1), ('y', 2), (NULL, 3), ('x', 4)")
	tab, _ := e.Catalog().Get("t")
	queries := []string{"SELECT s, a FROM t", "SELECT s, a FROM t ORDER BY a DESC"}
	want := make([]string, len(queries))
	results := make([]*Result, len(queries))
	for i, q := range queries {
		want[i] = renderRows(mustExec(t, e, q).Rows)
		if results[i] = unboxed(t, e, q); results[i].Vectors()[0].Dict != tab.Column(0).Dict {
			t.Errorf("%s: the result does not share the table's dictionary", q)
		}
	}
	for i := 0; i < 200; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t VALUES ('new-%d', %d)", i, 10+i))
	}
	mustExec(t, e, "UPDATE t SET s = 'changed' WHERE a < 3; DELETE FROM t WHERE a > 2")
	for i, res := range results {
		if got := renderRows(res.Box().Rows); got != want[i] {
			t.Errorf("%s after the writes:\n%s\nwant\n%s", queries[i], got, want[i])
		}
	}
}

// TestDictConcurrentReadersOfResult: results of a table that shares another's
// dictionary are boxed while a writer appends new strings to the owner, which
// grows the dictionary their VARCHAR columns read. Run it under -race.
func TestDictConcurrentReadersOfResult(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE r (s VARCHAR, a INTEGER); CREATE TABLE w (s VARCHAR, a INTEGER)")
	r, _ := e.Catalog().Get("r")
	for i := 0; i < 3000; i++ {
		s := value.NewString(fmt.Sprint("s", i%40))
		if i%89 == 0 {
			s = value.Null
		}
		if _, err := r.AppendRow([]value.Value{s, value.NewInt(int64(i % 7))}); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, e, "INSERT INTO w SELECT s, a FROM r WHERE a < 3")
	queries := []string{"SELECT s, a FROM w", "SELECT DISTINCT s FROM w ORDER BY s", "SELECT s, count(*) FROM w GROUP BY s"}
	want := make([]string, len(queries))
	held := make([]*Result, len(queries))
	for i, q := range queries {
		want[i] = renderRows(mustExec(t, e, q).Rows)
		held[i] = unboxed(t, e, q)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 200; i++ {
			if _, err := e.ExecSQL(fmt.Sprintf("INSERT INTO r VALUES ('new-%d', %d), ('s3', 0)", i, i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := range 2 {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-done:
					if k > 0 {
						return
					}
				default:
				}
				q := k % len(queries)
				res, err := e.ExecSQLCtxIn(context.Background(), queries[q], 1+g, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if got := renderRows(res.Box().Rows); got != want[q] {
					t.Errorf("%s under a writer:\n%s\nwant\n%s", queries[q], got, want[q])
					return
				}
			}
		}(g)
	}
	for i, res := range held {
		if got := renderRows(res.Box().Rows); got != want[i] {
			t.Errorf("%s, held and boxed under a writer:\n%s\nwant\n%s", queries[i], got, want[i])
		}
	}
	wg.Wait()
}
