package engine_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

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

// The join index through SQL: CREATE INDEX declares it on a table, the first
// join through it builds it, and every write after that drops it, for the
// next join to build anew. Each test below joins a probe table to an indexed
// table, checks that the plan builds through the declared index, and reads
// what the index holds from the join's rows.

// openDB returns a database that ran setup.
func openDB(t *testing.T, setup string) *pctagg.DB {
	t.Helper()
	db := pctagg.Open()
	if _, err := db.Exec(setup); err != nil {
		t.Fatal(err)
	}
	return db
}

// dbExec runs sql and returns the rows it affected.
func dbExec(t *testing.T, db *pctagg.DB, sql string) int64 {
	t.Helper()
	n, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return n
}

// dbQuery returns sql's rows, printed.
func dbQuery(t *testing.T, db *pctagg.DB, sql string) string {
	t.Helper()
	rows, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return fmt.Sprint(rows.Data)
}

// indexJoin returns the rows of the join sql, printed, and fails unless its
// plan builds through a declared index.
func indexJoin(t *testing.T, db *pctagg.DB, sql string) string {
	t.Helper()
	if plan := dbQuery(t, db, "EXPLAIN "+sql); !strings.Contains(plan, "via existing index") {
		t.Fatalf("%s: the join does not read the index: %s", sql, plan)
	}
	return dbQuery(t, db, sql)
}

func TestAddLookup(t *testing.T) {
	db := openDB(t, `CREATE TABLE b (id INTEGER, state VARCHAR, city VARCHAR);
		CREATE INDEX i ON b (state, city); CREATE TABLE p (state VARCHAR, city VARCHAR);
		INSERT INTO b VALUES (0, 'CA', 'SF'), (1, 'CA', 'SF'), (2, 'TX', 'Dallas');
		INSERT INTO p VALUES ('CA', 'SF'), ('CA', 'LA'), ('TX', 'Dallas')`)
	const sql = "SELECT p.state, p.city, b.id FROM p, b WHERE p.state = b.state AND p.city = b.city"
	if got, want := indexJoin(t, db, sql), "[[CA SF 0] [CA SF 1] [TX Dallas 2]]"; got != want {
		t.Errorf("join = %s, want %s", got, want)
	}
	dbExec(t, db, "INSERT INTO b VALUES (3, 'CA', 'LA')")
	if got, want := indexJoin(t, db, sql), "[[CA SF 0] [CA SF 1] [CA LA 3] [TX Dallas 2]]"; got != want {
		t.Errorf("after an INSERT: join = %s, want %s", got, want)
	}
	b, err := db.Engine().Catalog().Get("b")
	if err != nil {
		t.Fatal(err)
	}
	ix := b.IndexOn([]string{"state", "city"})
	if ix == nil || ix.Name() != "i" {
		t.Fatalf("IndexOn(state, city) = %v", ix)
	}
	if cols := ix.Columns(); len(cols) != 2 || cols[0] != "state" || cols[1] != "city" {
		t.Errorf("Columns = %v", cols)
	}
	if b.IndexOn([]string{"city", "state"}) != nil {
		t.Error("IndexOn must match the column order")
	}
}

// NULL keys are indexed: = matches none of them, the null-safe form all.
func TestNullKeysIndexed(t *testing.T) {
	db := openDB(t, `CREATE TABLE b (id INTEGER, d INTEGER); CREATE INDEX i ON b (d);
		CREATE TABLE p (d INTEGER);
		INSERT INTO b VALUES (0, NULL), (1, NULL), (2, 1); INSERT INTO p VALUES (NULL), (1)`)
	if got, want := indexJoin(t, db, "SELECT p.d, b.id FROM p, b WHERE p.d = b.d"), "[[1 2]]"; got != want {
		t.Errorf("under =: %s, want %s", got, want)
	}
	const nullSafe = "SELECT p.d, b.id FROM p, b WHERE p.d = b.d OR (p.d IS NULL AND b.d IS NULL)"
	if got, want := indexJoin(t, db, nullSafe), "[[<nil> 0] [<nil> 1] [1 2]]"; got != want {
		t.Errorf("null-safe: %s, want %s", got, want)
	}
}

// A deleted row leaves the index: its key stops matching it, and the key
// whose rows are all gone matches nothing.
func TestRemove(t *testing.T) {
	db := openDB(t, `CREATE TABLE b (id INTEGER, d INTEGER); CREATE INDEX i ON b (d);
		CREATE TABLE p (d INTEGER);
		INSERT INTO b VALUES (10, 1), (11, 1); INSERT INTO p VALUES (1), (2)`)
	const sql = "SELECT p.d, b.id FROM p, b WHERE p.d = b.d"
	if got, want := indexJoin(t, db, sql), "[[1 10] [1 11]]"; got != want {
		t.Fatalf("join = %s, want %s", got, want)
	}
	if n := dbExec(t, db, "DELETE FROM b WHERE id = 10"); n != 1 {
		t.Errorf("DELETE of an existing row removed %d", n)
	}
	if n := dbExec(t, db, "DELETE FROM b WHERE id = 10"); n != 0 {
		t.Errorf("DELETE twice removed %d", n)
	}
	if got, want := indexJoin(t, db, sql), "[[1 11]]"; got != want {
		t.Errorf("after a DELETE: %s, want %s", got, want)
	}
	dbExec(t, db, "DELETE FROM b WHERE id = 11")
	if got := indexJoin(t, db, sql); got != "[]" {
		t.Errorf("after the last DELETE: %s, want none", got)
	}
	if got := indexJoin(t, db, "SELECT p.d, b.id FROM p LEFT OUTER JOIN b ON p.d = b.d"); got != "[[1 <nil>] [2 <nil>]]" {
		t.Errorf("an empty index must leave every probe row unmatched: %s", got)
	}
}

// A key of several columns and kinds finds through the index the rows a scan
// filtering on that key finds, in the same order.
func TestLookupKeyMatchesLookup(t *testing.T) {
	db := openDB(t, `CREATE TABLE b (id INTEGER, a VARCHAR, n INTEGER); CREATE INDEX i ON b (a, n);
		CREATE TABLE p (a VARCHAR, n INTEGER)`)
	var vals []string
	for id := range 60 {
		vals = append(vals, fmt.Sprintf("(%d, 'x%d', %d)", id, id%4, id%5))
	}
	dbExec(t, db, "INSERT INTO b VALUES "+strings.Join(vals, ", "))
	for _, k := range []struct {
		a string
		n int
	}{{"x3", 3}, {"x0", 0}, {"x1", 4}, {"x3", 9}, {"y", 3}} {
		dbExec(t, db, "DELETE FROM p")
		dbExec(t, db, fmt.Sprintf("INSERT INTO p VALUES ('%s', %d)", k.a, k.n))
		got := indexJoin(t, db, "SELECT b.id FROM p, b WHERE p.a = b.a AND p.n = b.n")
		want := dbQuery(t, db, fmt.Sprintf("SELECT id FROM b WHERE a = '%s' AND n = %d", k.a, k.n))
		if got != want {
			t.Errorf("key (%s, %d): the join found %s, the scan %s", k.a, k.n, got, want)
		}
	}
}

// After inserting rows and deleting all of them, one at a time, the index is
// empty; after each delete each key matches the rows left with it.
func TestAddRemoveBalanceProperty(t *testing.T) {
	f := func(keys []int8) bool {
		db := pctagg.Open()
		if _, err := db.Exec("CREATE TABLE b (id INTEGER, k INTEGER); CREATE INDEX i ON b (k); CREATE TABLE p (k INTEGER)"); err != nil {
			t.Fatal(err)
		}
		const sql = "SELECT COUNT(*) FROM p, b WHERE p.k = b.k"
		for i, k := range keys {
			dbExec(t, db, fmt.Sprintf("INSERT INTO b VALUES (%d, %d)", i, k))
		}
		for k := -128; k < 128; k++ {
			dbExec(t, db, fmt.Sprintf("INSERT INTO p VALUES (%d)", k))
		}
		for i := range keys {
			if got, want := indexJoin(t, db, sql), fmt.Sprintf("[[%d]]", len(keys)-i); got != want {
				t.Logf("keys %v, %d deleted: the join counts %s, want %s", keys, i, got, want)
				return false
			}
			dbExec(t, db, fmt.Sprintf("DELETE FROM b WHERE id = %d", i))
		}
		return indexJoin(t, db, sql) == "[[0]]"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// A key's rows come out of the index in row order whatever order rows come
// and go in: appended out of order, deleted, moved away by an UPDATE of the
// key and back, and after an UPDATE rolled back.
func TestRowListStaysAscending(t *testing.T) {
	db := openDB(t, `CREATE TABLE b (id INTEGER, d INTEGER); CREATE INDEX i ON b (d);
		CREATE TABLE p (d INTEGER); INSERT INTO p VALUES (1)`)
	const sql = "SELECT b.id FROM p, b WHERE p.d = b.d"
	check := func(when, want string) {
		t.Helper()
		if got := indexJoin(t, db, sql); got != want {
			t.Errorf("%s: %s, want %s", when, got, want)
		}
		if scan := dbQuery(t, db, "SELECT id FROM b WHERE d = 1"); scan != want {
			t.Errorf("%s: the scan reads %s, want %s", when, scan, want)
		}
	}
	for _, id := range []int{4, 9, 2, 7, 2} {
		dbExec(t, db, fmt.Sprintf("INSERT INTO b VALUES (%d, 1)", id))
		indexJoin(t, db, sql) // the next append drops a built index
	}
	check("after out-of-order appends", "[[4] [9] [2] [7] [2]]")
	dbExec(t, db, "DELETE FROM b WHERE id = 4")
	dbExec(t, db, "INSERT INTO b VALUES (3, 1)")
	check("after a delete and an append", "[[9] [2] [7] [2] [3]]")
	dbExec(t, db, "UPDATE b SET d = 2 WHERE id = 9")
	check("after moving a row's key away", "[[2] [7] [2] [3]]")
	dbExec(t, db, "UPDATE b SET d = 1 WHERE id = 9")
	check("after moving it back", "[[9] [2] [7] [2] [3]]")
	if _, err := db.Exec("UPDATE b SET d = 5, id = 'x' WHERE id = 7"); err == nil {
		t.Fatal("an UPDATE storing a VARCHAR in an INTEGER column must fail")
	}
	check("after a rolled-back UPDATE", "[[9] [2] [7] [2] [3]]")
}
