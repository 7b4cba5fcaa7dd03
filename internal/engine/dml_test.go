package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/diag"
	"repro/internal/storage"
	"repro/internal/value"
)

// dmlFixture is a 3 000-row table with a primary key (g), a second index (a)
// and a VARCHAR the failing statements trip over, and src, a table of
// 3 000 (g, w) rows that UPDATE … FROM joins to it on g.
func dmlFixture(t testing.TB) *Engine {
	t.Helper()
	e := New(storage.NewCatalog())
	mustExec(t, e, `CREATE TABLE dst (g INTEGER, a INTEGER, v VARCHAR, PRIMARY KEY (g)); CREATE INDEX dst_a ON dst (a);
		INSERT INTO dst VALUES (-1, 0, 'x'), (-2, NULL, NULL); CREATE TABLE src (g INTEGER, w INTEGER)`)
	dst, _ := e.Catalog().Get("dst")
	src, _ := e.Catalog().Get("src")
	for i := 0; i < 3000; i++ {
		dst.AppendRow([]value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 13)), value.NewString("x")})
		src.AppendRow([]value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 7))})
	}
	return e
}

// rebuiltState is stateOf for a copy of the table built by appending its rows
// in order: what the indexes of a whole-table rewrite would look like.
func rebuiltState(t *testing.T, e *Engine, name string) tableState {
	t.Helper()
	tab, _ := e.Catalog().Get(name)
	c := New(storage.NewCatalog())
	fresh := tab.Without(nil)
	fresh.Truncate()
	c.Catalog().Put(fresh)
	for r := 0; r < tab.NumRows(); r++ {
		if _, err := fresh.AppendRow(tab.Row(r, nil)); err != nil {
			t.Fatal(err)
		}
	}
	return stateOf(t, c, name)
}

// TestUpdateInPlaceFailureIsAtomic: every way an UPDATE, single-table or
// joined, can die — a value the column cannot store, an injected fault
// between two cells of one row or at a late write, a cancelled context at the
// last check, all after its first cell write; a late evaluation error and the
// budget, before it — leaves the target's cells, both indexes, the epoch and
// the table object exactly as they were.
func TestUpdateInPlaceFailureIsAtomic(t *testing.T) {
	const all = "UPDATE dst SET g = g + 10000, a = a + 1 WHERE g >= 0"
	const joined = "UPDATE dst FROM src SET g = dst.g + 10000, a = src.w WHERE dst.g = src.g"
	lastCheck := func(sql string) context.Context {
		// (A context without a Done channel gets no governor; a limit does.)
		unlimited := Limits{MaxRows: math.MaxInt64}
		count := &countdownCtx{Context: context.Background(), after: math.MaxInt}
		if _, err := dmlFixture(t).ExecSQLCtx(WithLimits(count, unlimited), sql); err != nil {
			t.Fatal(err)
		}
		return WithLimits(&countdownCtx{Context: context.Background(), after: count.calls - 1}, unlimited)
	}
	failures := []struct {
		name, sql string
		ctx       func() context.Context
		arm       func()
		code      string
	}{
		{name: "late evaluation error", sql: "UPDATE dst SET g = g + 10000, a = CASE WHEN g < 2990 THEN a + 1 ELSE v / 2 END WHERE g >= 0"},
		{name: "late store error", sql: "UPDATE dst SET g = g + 10000, a = CASE WHEN g < 2990 THEN 1 ELSE v END WHERE g >= 0"},
		{name: "fault before write 1402", sql: all, arm: func() {
			chaos.Arm(chaos.UpdateApply, chaos.Fault{Err: errors.New("injected apply fault"), After: 1401})
		}},
		{name: "panic before write 2", sql: all, code: diag.CodePanic, arm: func() {
			chaos.Arm(chaos.UpdateApply, chaos.Fault{Panic: "apply panic", After: 1})
		}},
		{name: "MaxRows", sql: all, code: diag.CodeRowLimit, ctx: func() context.Context {
			return WithLimits(context.Background(), Limits{MaxRows: 1500})
		}},
		{name: "cancelled at the last check", sql: all, code: diag.CodeCancelled, ctx: func() context.Context { return lastCheck(all) }},
		{name: "joined: fault before write 5801", sql: joined, arm: func() {
			chaos.Arm(chaos.UpdateApply, chaos.Fault{Err: errors.New("injected apply fault"), After: 5800})
		}},
		{name: "joined: late evaluation error", sql: "UPDATE dst FROM src SET g = dst.g + 10000, a = CASE WHEN dst.g < 2990 THEN src.w ELSE dst.v / 2 END WHERE dst.g = src.g"},
		{name: "joined: cancelled at the last check", sql: joined, code: diag.CodeCancelled, ctx: func() context.Context { return lastCheck(joined) }},
	}
	chaos.Enable()
	defer chaos.Disable()
	for _, fail := range failures {
		e := dmlFixture(t)
		before, tab := stateOf(t, e, "dst"), tableOf(t, e, "dst")
		ctx := context.Background()
		if fail.ctx != nil {
			ctx = fail.ctx()
		}
		if fail.arm != nil {
			fail.arm()
		}
		_, err := e.ExecSQLCtx(ctx, fail.sql)
		chaos.Disarm(chaos.UpdateApply)
		var coded interface{ Code() string }
		if err == nil || fail.code != "" && (!errors.As(err, &coded) || coded.Code() != fail.code) {
			t.Errorf("%s: err = %v, want a failure with code %q", fail.name, err, fail.code)
		}
		if after := stateOf(t, e, "dst"); !reflect.DeepEqual(before, after) || tableOf(t, e, "dst") != tab {
			t.Errorf("%s: target changed by a failed UPDATE\nbefore %+v\nafter  %+v", fail.name, before, after)
		}
	}
}

func tableOf(t *testing.T, e *Engine, name string) *storage.Table {
	t.Helper()
	tab, err := e.Catalog().Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestUpdateInPlaceMaintainsIndexes: an UPDATE that assigns index keys keeps
// the table object, moves exactly the affected rows' entries, and leaves the
// indexes as a rebuild in row order would — also when a second UPDATE moves
// the rows back.
func TestUpdateInPlaceMaintainsIndexes(t *testing.T) {
	e := dmlFixture(t)
	tab, pk := tableOf(t, e, "dst"), tableOf(t, e, "dst").Indexes()[0]
	for _, sql := range []string{
		"UPDATE dst SET g = g + 10000, a = 5 WHERE a = 7",
		"UPDATE dst SET v = 'y' WHERE g = 12",
		"UPDATE dst SET a = NULL WHERE a = 5 AND g < 10100",
		"UPDATE dst SET g = g - 10000, a = 7 WHERE g >= 10000",
	} {
		epoch := tab.Epoch()
		if r := mustExec(t, e, sql); r.Affected == 0 {
			t.Fatalf("%s affected no row", sql)
		}
		if tableOf(t, e, "dst") != tab || tab.Indexes()[0] != pk || tab.Epoch() <= epoch {
			t.Errorf("%s: want the same table and index objects at a later epoch", sql)
		}
		got, want := stateOf(t, e, "dst"), rebuiltState(t, e, "dst")
		got.epoch, want.epoch = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: indexes differ from a rebuild\ngot  %+v\nwant %+v", sql, got.index, want.index)
		}
	}
	if r := mustExec(t, e, "SELECT count(*) FROM dst d, dst o WHERE d.g = o.g AND d.a = 7"); r.Rows[0][0].Int() != 231 {
		t.Errorf("index-probing self join after the UPDATEs found %v rows, want 231", r.Rows[0][0])
	}
}

// TestDeleteGathersEveryColumnType: DELETE's staging table is gathered
// vector by vector — all four column types, NULLs before, between and after
// the dropped rows — and must hold exactly the rows a filter keeps, under
// indexes equal to a rebuild's; the replaced table is left as it was.
func TestDeleteGathersEveryColumnType(t *testing.T) {
	for _, where := range []string{"s = 's3'", "b = true AND i < 4000", "f IS NULL", "i = 4999", "i >= 0 AND s = 's0'"} {
		e := New(storage.NewCatalog())
		mustExec(t, e, "CREATE TABLE m (i INTEGER, f REAL, s VARCHAR, b BOOLEAN, PRIMARY KEY (i)); CREATE INDEX m_s ON m (s)")
		old := tableOf(t, e, "m")
		for i := 0; i < 5000; i++ {
			row := []value.Value{value.NewInt(int64(i)), value.NewFloat(float64(i) / 4), value.NewString(fmt.Sprint("s", i%7)), value.NewBool(i%3 == 0)}
			if i%11 == 0 {
				row[1+i%3] = value.Null
			}
			old.AppendRow(row)
		}
		replaced := New(storage.NewCatalog())
		replaced.Catalog().Put(old)
		before := stateOf(t, replaced, "m")
		want := renderRows(mustExec(t, e, "SELECT * FROM m WHERE NOT ("+where+") OR ("+where+") IS NULL").Rows)

		r := mustExec(t, e, "DELETE FROM m WHERE "+where)
		if after := tableOf(t, e, "m"); after == old || after.NumRows() != old.NumRows()-r.Affected || r.Affected == 0 {
			t.Fatalf("DELETE WHERE %s: affected %d of %d rows, %d left", where, r.Affected, old.NumRows(), after.NumRows())
		}
		if got := renderRows(mustExec(t, e, "SELECT * FROM m").Rows); got != want {
			t.Errorf("DELETE WHERE %s kept the wrong rows", where)
		}
		got, rebuilt := stateOf(t, e, "m"), rebuiltState(t, e, "m")
		got.epoch, rebuilt.epoch = 0, 0
		if !reflect.DeepEqual(got, rebuilt) {
			t.Errorf("DELETE WHERE %s: staged table differs from a rebuild\ngot  %.200s\nwant %.200s", where, got.index, rebuilt.index)
		}
		if again := stateOf(t, replaced, "m"); !reflect.DeepEqual(before, again) {
			t.Errorf("DELETE WHERE %s changed the table it replaced", where)
		}
	}
}

// TestFailedInsertKeepsIndexes: the rollback of a failed INSERT leaves the
// primary key of a 100 000-row table declared as it was, and a join through
// it — cached before the INSERT, so the rollback must drop it — finds the
// surviving rows and none of the discarded ones, as the reference does.
func TestFailedInsertKeepsIndexes(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE big (id INTEGER, a INTEGER, PRIMARY KEY (id)); CREATE TABLE probe (id INTEGER)")
	big := tableOf(t, e, "big")
	for i := 0; i < 100_000; i++ {
		big.AppendRow([]value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 5))})
	}
	mustExec(t, e, "INSERT INTO probe VALUES (100003), (99999), (0)")
	const join = "SELECT b.id, b.a FROM probe p, big b WHERE p.id = b.id"
	const want = "99999|4|\n0|0|\n"
	if got := renderRows(mustExec(t, e, join).Rows); got != want {
		t.Fatalf("before the INSERT, the join found\n%s\nwant\n%s", got, want)
	}
	pk := big.Indexes()[0]
	sql := "INSERT INTO big VALUES "
	for i := 0; i < 9; i++ {
		sql += fmt.Sprintf("(%d, 1), ", 100_000+i)
	}
	wantErr(t, e, sql+"(100009, 'x')", "cannot store")
	if big.NumRows() != 100_000 || len(big.Indexes()) != 1 || big.Indexes()[0] != pk {
		t.Fatalf("after a failed INSERT: %d rows, indexes %v; want 100000 rows under %v", big.NumRows(), big.Indexes(), pk)
	}
	for _, ref := range []bool{false, true} {
		UseReference(e, ref)
		if got := renderRows(mustExec(t, e, join).Rows); got != want {
			t.Errorf("reference=%v: the join through the primary key found\n%s\nwant\n%s", ref, got, want)
		}
	}
}

// TestUpdateFromSemantics pins what UPDATE … FROM assigns: each target row,
// ascending, takes its first FROM row — in the join index's row order, which
// is the FROM table's — at which the residual WHERE holds; a row with none is
// left as it is, and only the rows assigned count as affected. Every
// assignment reads the table as the statement found it: the target row's
// other cells, and the FROM row, also when FROM names the target.
func TestUpdateFromSemantics(t *testing.T) {
	const setup = `CREATE TABLE a (k INTEGER, v INTEGER); CREATE TABLE b (k INTEGER, w INTEGER, ok BOOLEAN);
		CREATE TABLE one (n INTEGER); CREATE TABLE s (k INTEGER, nxt INTEGER, v INTEGER);
		INSERT INTO a VALUES (1, 0), (2, 0), (3, 0), (NULL, 0), (4, 0);
		INSERT INTO b VALUES (1, 10, false), (1, 11, true), (2, 20, true), (NULL, 99, true), (3, 30, true), (3, 31, true);
		INSERT INTO one VALUES (100); INSERT INTO s VALUES (1, 2, 10), (2, 3, 20), (3, NULL, 30)`
	for _, c := range []struct {
		name, sql, table, want string
		affected               int
	}{
		{"first match wins", "UPDATE a FROM b SET v = b.w WHERE a.k = b.k",
			"a", "[[1 10] [2 20] [3 30] [NULL 0] [4 0]]", 3},
		{"residual rejects the first match", "UPDATE a FROM b SET v = b.w WHERE a.k = b.k AND b.ok",
			"a", "[[1 11] [2 20] [3 30] [NULL 0] [4 0]]", 3},
		{"residual rejects every match of some rows", "UPDATE a FROM b SET v = b.w WHERE b.k = a.k AND b.w > 25",
			"a", "[[1 0] [2 0] [3 30] [NULL 0] [4 0]]", 1},
		{"null-safe pair", "UPDATE a FROM b SET v = b.w WHERE a.k = b.k OR (a.k IS NULL AND b.k IS NULL)",
			"a", "[[1 10] [2 20] [3 30] [NULL 99] [4 0]]", 4},
		{"no equality pair: the single-row totals", "UPDATE a FROM one SET v = a.k * one.n",
			"a", "[[1 100] [2 200] [3 300] [NULL NULL] [4 400]]", 5},
		{"no equality pair, a residual", "UPDATE a FROM b SET v = b.w WHERE b.w > a.k * 10",
			"a", "[[1 11] [2 99] [3 99] [NULL 0] [4 99]]", 4},
		{"assignments read the pre-update row", "UPDATE a FROM b SET v = b.w, k = a.v + a.k + 100 WHERE a.k = b.k",
			"a", "[[101 10] [102 20] [103 30] [NULL 0] [4 0]]", 3},
		{"FROM names the target under an alias", "UPDATE s FROM s o SET v = o.v WHERE s.k = o.nxt",
			"s", "[[1 2 10] [2 3 10] [3 NULL 20]]", 2},
		{"aliased target", "UPDATE a t FROM b SET v = b.w + t.v WHERE t.k = b.k AND NOT b.ok",
			"a", "[[1 10] [2 0] [3 0] [NULL 0] [4 0]]", 1},
		{"no row matches", "UPDATE a FROM b SET v = 1 WHERE a.k = b.k AND b.w < 0",
			"a", "[[1 0] [2 0] [3 0] [NULL 0] [4 0]]", 0},
	} {
		e := New(storage.NewCatalog())
		mustExec(t, e, setup)
		tab := tableOf(t, e, c.table)
		epoch := tab.Epoch()
		r, err := e.ExecSQL(c.sql)
		if err != nil {
			t.Fatalf("%s: %s: %v", c.name, c.sql, err)
		}
		if got := fmt.Sprint(mustExec(t, e, "SELECT * FROM "+c.table).Rows); got != c.want || r.Affected != c.affected {
			t.Errorf("%s: %s left %s, %d affected; want %s, %d", c.name, c.sql, got, r.Affected, c.want, c.affected)
		}
		if c.affected == 0 && (tableOf(t, e, c.table) != tab || tab.Epoch() != epoch) {
			t.Errorf("%s: an UPDATE that matched no row changed the table object or its epoch", c.name)
		}
	}
}
