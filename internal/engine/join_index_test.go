package engine_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/value"
	"repro/pctagg"
)

// sameJoin runs sql on e's pipeline and on its row-at-a-time reference,
// whose hash join probes a map of its own, and fails on any difference,
// row order included.
func sameJoin(t *testing.T, e *engine.Engine, when, sql string) {
	t.Helper()
	engine.UseReference(e, true)
	ref, err := e.ExecSQL(sql)
	engine.UseReference(e, false)
	if err != nil {
		t.Fatalf("%s: reference: %v", when, err)
	}
	got, err := e.ExecSQL(sql)
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if diff := difftest.Equal(ref, got); diff != "" {
		t.Errorf("%s: %s: %s", when, sql, diff)
	}
	if len(ref.Rows) == 0 {
		t.Errorf("%s: %s found nothing: the check is empty", when, sql)
	}
}

// TestJoinIndexFollowsEveryWrite: a join index is built by the first join
// that reads it and cached on its table; every write after that drops it,
// for the next join to build anew. After each kind of write — a
// storage append, a multi-row INSERT, an INSERT rolled back on its last
// row, an UPDATE of a key column, an UPDATE rolled back (storage.Undo), a
// DELETE, TruncateTo, Truncate, and a snapshot Load, which keeps the index
// definitions — the joins through the table's primary key and through a
// secondary index on a key with duplicates and NULLs return the reference
// join's rows. Each write follows a join, so a stale cached index would
// show.
func TestJoinIndexFollowsEveryWrite(t *testing.T) {
	db := pctagg.Open()
	if _, err := db.Exec(`CREATE TABLE b (id INTEGER, k INTEGER, s VARCHAR, v INTEGER, PRIMARY KEY (id));
		CREATE INDEX b_ks ON b (k, s); CREATE TABLE pr (k INTEGER, s VARCHAR)`); err != nil {
		t.Fatal(err)
	}
	e := db.Engine()
	b, _ := e.Catalog().Get("b")
	pr, _ := e.Catalog().Get("pr")
	row := func(id int) []value.Value {
		k, s := value.NewInt(int64(id%7)), value.NewString(fmt.Sprint("s", id%3))
		if id%5 == 0 {
			k = value.Null
		}
		return []value.Value{value.NewInt(int64(id)), k, s, value.NewInt(int64(id % 4))}
	}
	for id := 0; id < 2100; id++ {
		b.AppendRow(row(id))
	}
	for id := 0; id < 40; id++ {
		pr.AppendRow([]value.Value{row(id)[1], row(id)[2]})
	}
	if _, err := db.Exec("INSERT INTO pr VALUES (NULL, 's1'), (2050, 's0'), (300, 's2')"); err != nil {
		t.Fatal(err)
	}
	joins := []string{
		"SELECT pr.k, b.id, b.v FROM pr, b WHERE pr.k = b.id",
		"SELECT pr.k, pr.s, b.id FROM pr, b WHERE pr.k = b.k AND pr.s = b.s",
		"SELECT pr.k, pr.s, b.id FROM pr, b WHERE (pr.k = b.k OR (pr.k IS NULL AND b.k IS NULL)) AND pr.s = b.s",
		"SELECT pr.k, b.id FROM pr LEFT OUTER JOIN b ON pr.k = b.k AND pr.s = b.s",
	}
	check := func(e *engine.Engine, when string) {
		t.Helper()
		for _, sql := range joins {
			sameJoin(t, e, when, sql)
		}
	}
	check(e, "at the start")
	for _, w := range []struct {
		name, sql string
		fails     bool // the statement fails and is rolled back
		write     func()
	}{
		{name: "a storage append", write: func() { b.AppendRow(row(2100)) }},
		{name: "a multi-row INSERT", sql: "INSERT INTO b VALUES (2101, 3, 's1', 0), (2102, NULL, 's9', 1), (2050, 40, 's0', 2)"},
		{name: "a rolled-back INSERT", sql: "INSERT INTO b VALUES (2103, 3, 's1', 0), (2104, 3, 's1', 'x')", fails: true},
		{name: "an UPDATE of the keys", sql: "UPDATE b SET k = k + 100, id = id + 1 WHERE v = 1"},
		{name: "a rolled-back UPDATE", sql: "UPDATE b SET k = 2, v = 'x' WHERE v = 2", fails: true},
		{name: "a DELETE", sql: "DELETE FROM b WHERE v = 3"},
		{name: "TruncateTo", write: func() { b, _ = e.Catalog().Get("b"); b.TruncateTo(b.NumRows() - 40) }},
		{name: "Truncate", write: func() {
			b.Truncate()
			for id := 0; id < 300; id++ {
				b.AppendRow(row(id * 7))
			}
		}},
	} {
		if w.write != nil {
			w.write()
		} else if _, err := db.Exec(w.sql); (err != nil) != w.fails {
			t.Fatalf("%s: %v", w.name, err)
		}
		check(e, "after "+w.name)
	}
	var snap bytes.Buffer
	if err := db.Save(&snap); err != nil {
		t.Fatal(err)
	}
	loaded := pctagg.Open()
	if err := loaded.Load(&snap); err != nil {
		t.Fatal(err)
	}
	if lb, _ := loaded.Engine().Catalog().Get("b"); lb == nil || lb.IndexOn([]string{"k", "s"}) == nil || lb.IndexOn([]string{"id"}) == nil {
		t.Fatal("a loaded table must keep its index definitions")
	}
	check(loaded.Engine(), "after a snapshot Load")
}

// TestJoinAcrossIntegerAndReal: = compares an INTEGER with a REAL through
// float64, so 1 = 1.0 holds in every form a join takes — inner, null-safe,
// LEFT OUTER and UPDATE … FROM — as it does in a nested loop's predicate. A
// join key lays each column out by its type, so such a pair stays a
// predicate rather than a key.
func TestJoinAcrossIntegerAndReal(t *testing.T) {
	db := pctagg.Open()
	if _, err := db.Exec(`CREATE TABLE a (k INTEGER, v INTEGER); CREATE TABLE b (k REAL, w INTEGER);
		INSERT INTO a VALUES (1, 10), (2, 20), (NULL, 30); INSERT INTO b VALUES (1.0, 7), (2.5, 8), (NULL, 9)`); err != nil {
		t.Fatal(err)
	}
	e := db.Engine()
	for _, c := range []struct{ sql, want string }{
		{"SELECT a.v, b.w FROM a, b WHERE a.k = b.k", "[[10 7]]"},
		{"SELECT a.v, b.w FROM a, b WHERE a.v * 0 + a.k = b.k", "[[10 7]]"},
		{"SELECT a.v, b.w FROM a, b WHERE a.k = b.k OR (a.k IS NULL AND b.k IS NULL)", "[[10 7] [30 9]]"},
		{"SELECT a.v, b.w FROM a JOIN b ON a.k = b.k", "[[10 7]]"},
		{"SELECT a.v, b.w FROM a LEFT OUTER JOIN b ON a.k = b.k", "[[10 7] [20 NULL] [30 NULL]]"},
	} {
		for _, ref := range []bool{false, true} {
			engine.UseReference(e, ref)
			res, err := e.ExecSQL(c.sql)
			if err != nil {
				t.Fatalf("%s: %v", c.sql, err)
			}
			if got := fmt.Sprint(res.Rows); got != c.want {
				t.Errorf("reference=%v: %s = %s, want %s", ref, c.sql, got, c.want)
			}
		}
		engine.UseReference(e, false)
	}
	for _, sql := range []string{"UPDATE a FROM b SET v = b.w WHERE a.k = b.k", "UPDATE a FROM b SET v = b.w WHERE a.k = b.k OR (a.k IS NULL AND b.k IS NULL)"} {
		if _, err := db.Exec("UPDATE a SET v = 0"); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		res, _ := e.ExecSQL("SELECT k, v FROM a")
		want := "[[1 7] [2 0] [NULL 0]]"
		if sql[len(sql)-1] == ')' {
			want = "[[1 7] [2 0] [NULL 9]]"
		}
		if got := fmt.Sprint(res.Rows); got != want {
			t.Errorf("%s left %s, want %s", sql, got, want)
		}
	}
}
