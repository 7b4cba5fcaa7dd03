// Package index_test checks, through SQL, the index a join reads: CREATE
// INDEX declares it on a table, the first join through it builds it, and
// every write after that drops it, for the next join to build anew. Each
// test joins a probe table to an indexed table, checks that the plan builds
// through the declared index, and reads what the index holds from the
// join's rows.
package index_test

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/pctagg"
)

// open returns a database that ran setup.
func open(t *testing.T, setup string) *pctagg.DB {
	t.Helper()
	db := pctagg.Open()
	if _, err := db.Exec(setup); err != nil {
		t.Fatal(err)
	}
	return db
}

// exec runs sql and returns the rows it affected.
func exec(t *testing.T, db *pctagg.DB, sql string) int64 {
	t.Helper()
	n, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return n
}

// query returns sql's rows, printed.
func query(t *testing.T, db *pctagg.DB, sql string) string {
	t.Helper()
	rows, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return fmt.Sprint(rows.Data)
}

// join returns the rows of the join sql, printed, and fails unless its plan
// builds through a declared index.
func join(t *testing.T, db *pctagg.DB, sql string) string {
	t.Helper()
	if plan := query(t, db, "EXPLAIN "+sql); !strings.Contains(plan, "via existing index") {
		t.Fatalf("%s: the join does not read the index: %s", sql, plan)
	}
	return query(t, db, sql)
}

func TestAddLookup(t *testing.T) {
	db := open(t, `CREATE TABLE b (id INTEGER, state VARCHAR, city VARCHAR);
		CREATE INDEX i ON b (state, city); CREATE TABLE p (state VARCHAR, city VARCHAR);
		INSERT INTO b VALUES (0, 'CA', 'SF'), (1, 'CA', 'SF'), (2, 'TX', 'Dallas');
		INSERT INTO p VALUES ('CA', 'SF'), ('CA', 'LA'), ('TX', 'Dallas')`)
	const sql = "SELECT p.state, p.city, b.id FROM p, b WHERE p.state = b.state AND p.city = b.city"
	if got, want := join(t, db, sql), "[[CA SF 0] [CA SF 1] [TX Dallas 2]]"; got != want {
		t.Errorf("join = %s, want %s", got, want)
	}
	exec(t, db, "INSERT INTO b VALUES (3, 'CA', 'LA')")
	if got, want := join(t, db, sql), "[[CA SF 0] [CA SF 1] [CA LA 3] [TX Dallas 2]]"; got != want {
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
	db := open(t, `CREATE TABLE b (id INTEGER, d INTEGER); CREATE INDEX i ON b (d);
		CREATE TABLE p (d INTEGER);
		INSERT INTO b VALUES (0, NULL), (1, NULL), (2, 1); INSERT INTO p VALUES (NULL), (1)`)
	if got, want := join(t, db, "SELECT p.d, b.id FROM p, b WHERE p.d = b.d"), "[[1 2]]"; got != want {
		t.Errorf("under =: %s, want %s", got, want)
	}
	const nullSafe = "SELECT p.d, b.id FROM p, b WHERE p.d = b.d OR (p.d IS NULL AND b.d IS NULL)"
	if got, want := join(t, db, nullSafe), "[[<nil> 0] [<nil> 1] [1 2]]"; got != want {
		t.Errorf("null-safe: %s, want %s", got, want)
	}
}

// A deleted row leaves the index: its key stops matching it, and the key
// whose rows are all gone matches nothing.
func TestRemove(t *testing.T) {
	db := open(t, `CREATE TABLE b (id INTEGER, d INTEGER); CREATE INDEX i ON b (d);
		CREATE TABLE p (d INTEGER);
		INSERT INTO b VALUES (10, 1), (11, 1); INSERT INTO p VALUES (1), (2)`)
	const sql = "SELECT p.d, b.id FROM p, b WHERE p.d = b.d"
	if got, want := join(t, db, sql), "[[1 10] [1 11]]"; got != want {
		t.Fatalf("join = %s, want %s", got, want)
	}
	if n := exec(t, db, "DELETE FROM b WHERE id = 10"); n != 1 {
		t.Errorf("DELETE of an existing row removed %d", n)
	}
	if n := exec(t, db, "DELETE FROM b WHERE id = 10"); n != 0 {
		t.Errorf("DELETE twice removed %d", n)
	}
	if got, want := join(t, db, sql), "[[1 11]]"; got != want {
		t.Errorf("after a DELETE: %s, want %s", got, want)
	}
	exec(t, db, "DELETE FROM b WHERE id = 11")
	if got := join(t, db, sql); got != "[]" {
		t.Errorf("after the last DELETE: %s, want none", got)
	}
	if got := join(t, db, "SELECT p.d, b.id FROM p LEFT OUTER JOIN b ON p.d = b.d"); got != "[[1 <nil>] [2 <nil>]]" {
		t.Errorf("an empty index must leave every probe row unmatched: %s", got)
	}
}

// A key of several columns and kinds finds through the index the rows a scan
// filtering on that key finds, in the same order.
func TestLookupKeyMatchesLookup(t *testing.T) {
	db := open(t, `CREATE TABLE b (id INTEGER, a VARCHAR, n INTEGER); CREATE INDEX i ON b (a, n);
		CREATE TABLE p (a VARCHAR, n INTEGER)`)
	var vals []string
	for id := range 60 {
		vals = append(vals, fmt.Sprintf("(%d, 'x%d', %d)", id, id%4, id%5))
	}
	exec(t, db, "INSERT INTO b VALUES "+strings.Join(vals, ", "))
	for _, k := range []struct {
		a string
		n int
	}{{"x3", 3}, {"x0", 0}, {"x1", 4}, {"x3", 9}, {"y", 3}} {
		exec(t, db, "DELETE FROM p")
		exec(t, db, fmt.Sprintf("INSERT INTO p VALUES ('%s', %d)", k.a, k.n))
		got := join(t, db, "SELECT b.id FROM p, b WHERE p.a = b.a AND p.n = b.n")
		want := query(t, db, fmt.Sprintf("SELECT id FROM b WHERE a = '%s' AND n = %d", k.a, k.n))
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
			exec(t, db, fmt.Sprintf("INSERT INTO b VALUES (%d, %d)", i, k))
		}
		for k := -128; k < 128; k++ {
			exec(t, db, fmt.Sprintf("INSERT INTO p VALUES (%d)", k))
		}
		for i := range keys {
			if got, want := join(t, db, sql), fmt.Sprintf("[[%d]]", len(keys)-i); got != want {
				t.Logf("keys %v, %d deleted: the join counts %s, want %s", keys, i, got, want)
				return false
			}
			exec(t, db, fmt.Sprintf("DELETE FROM b WHERE id = %d", i))
		}
		return join(t, db, sql) == "[[0]]"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// A key's rows come out of the index in row order whatever order rows come
// and go in: appended out of order, deleted, moved away by an UPDATE of the
// key and back, and after an UPDATE rolled back.
func TestRowListStaysAscending(t *testing.T) {
	db := open(t, `CREATE TABLE b (id INTEGER, d INTEGER); CREATE INDEX i ON b (d);
		CREATE TABLE p (d INTEGER); INSERT INTO p VALUES (1)`)
	const sql = "SELECT b.id FROM p, b WHERE p.d = b.d"
	check := func(when, want string) {
		t.Helper()
		if got := join(t, db, sql); got != want {
			t.Errorf("%s: %s, want %s", when, got, want)
		}
		if scan := query(t, db, "SELECT id FROM b WHERE d = 1"); scan != want {
			t.Errorf("%s: the scan reads %s, want %s", when, scan, want)
		}
	}
	for _, id := range []int{4, 9, 2, 7, 2} {
		exec(t, db, fmt.Sprintf("INSERT INTO b VALUES (%d, 1)", id))
		join(t, db, sql) // the next append drops a built index
	}
	check("after out-of-order appends", "[[4] [9] [2] [7] [2]]")
	exec(t, db, "DELETE FROM b WHERE id = 4")
	exec(t, db, "INSERT INTO b VALUES (3, 1)")
	check("after a delete and an append", "[[9] [2] [7] [2] [3]]")
	exec(t, db, "UPDATE b SET d = 2 WHERE id = 9")
	check("after moving a row's key away", "[[2] [7] [2] [3]]")
	exec(t, db, "UPDATE b SET d = 1 WHERE id = 9")
	check("after moving it back", "[[9] [2] [7] [2] [3]]")
	if _, err := db.Exec("UPDATE b SET d = 5, id = 'x' WHERE id = 7"); err == nil {
		t.Fatal("an UPDATE storing a VARCHAR in an INTEGER column must fail")
	}
	check("after a rolled-back UPDATE", "[[9] [2] [7] [2] [3]]")
}
