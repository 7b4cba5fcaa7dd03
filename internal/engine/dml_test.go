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
// and a VARCHAR the failing statements trip over.
func dmlFixture(t testing.TB) *Engine {
	t.Helper()
	e := New(storage.NewCatalog())
	mustExec(t, e, `CREATE TABLE dst (g INTEGER, a INTEGER, v VARCHAR, PRIMARY KEY (g)); CREATE INDEX dst_a ON dst (a);
		INSERT INTO dst VALUES (-1, 0, 'x'), (-2, NULL, NULL)`)
	dst, _ := e.Catalog().Get("dst")
	for i := 0; i < 3000; i++ {
		dst.AppendRow([]value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 13)), value.NewString("x")})
	}
	return e
}

// rebuiltState is stateOf for a copy of the table built by appending its rows
// in order: what the indexes of a whole-table rewrite would look like.
func rebuiltState(t *testing.T, e *Engine, name string) tableState {
	t.Helper()
	tab, _ := e.Catalog().Get(name)
	c := New(storage.NewCatalog())
	c.Catalog().Put(tab.EmptyClone())
	fresh, _ := c.Catalog().Get(name)
	for r := 0; r < tab.NumRows(); r++ {
		if _, err := fresh.AppendRow(tab.Row(r, nil)); err != nil {
			t.Fatal(err)
		}
	}
	return stateOf(t, c, name)
}

// TestUpdateInPlaceFailureIsAtomic: every way a single-table UPDATE can die
// after its first cell write — a late evaluation error, a value the column
// cannot store, an injected fault between two cells of one row, a cancelled
// context at the last check — and the budget that stops it before the first,
// leave the target's cells, both indexes and the epoch exactly as they were.
func TestUpdateInPlaceFailureIsAtomic(t *testing.T) {
	const all = "UPDATE dst SET g = g + 10000, a = a + 1 WHERE g >= 0"
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
		{name: "cancelled at the last check", sql: all, code: diag.CodeCancelled, ctx: func() context.Context {
			// (A context without a Done channel gets no governor; a limit does.)
			unlimited := Limits{MaxRows: math.MaxInt64}
			count := &countdownCtx{Context: context.Background(), after: math.MaxInt}
			if _, err := dmlFixture(t).ExecSQLCtx(WithLimits(count, unlimited), all); err != nil {
				t.Fatal(err)
			}
			return WithLimits(&countdownCtx{Context: context.Background(), after: count.calls - 1}, unlimited)
		}},
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

// TestFailedInsertKeepsIndexes: the rollback of a failed INSERT removes the
// discarded rows' index entries and nothing else — the primary-key index of a
// 100 000-row table is the same object with the same entries after a 10-row
// INSERT dies on its last row.
func TestFailedInsertKeepsIndexes(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE big (id INTEGER, a INTEGER, PRIMARY KEY (id))")
	big := tableOf(t, e, "big")
	for i := 0; i < 100_000; i++ {
		big.AppendRow([]value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 5))})
	}
	pk, n := big.Indexes()[0], big.Indexes()[0].Len()
	sql := "INSERT INTO big VALUES "
	for i := 0; i < 9; i++ {
		sql += fmt.Sprintf("(%d, 1), ", 100_000+i)
	}
	wantErr(t, e, sql+"(100009, 'x')", "cannot store")
	if big.NumRows() != 100_000 || big.Indexes()[0] != pk || pk.Len() != n {
		t.Fatalf("after a failed INSERT: %d rows, index %p with %d entries; want 100000, %p, %d", big.NumRows(), big.Indexes()[0], pk.Len(), pk, n)
	}
	if rows := pk.Lookup([]value.Value{value.NewInt(100_003)}); len(rows) != 0 {
		t.Errorf("index still holds a discarded row: %v", rows)
	}
	if rows := pk.Lookup([]value.Value{value.NewInt(99_999)}); len(rows) != 1 || rows[0] != 99_999 {
		t.Errorf("index lost a surviving row: %v", rows)
	}
}
