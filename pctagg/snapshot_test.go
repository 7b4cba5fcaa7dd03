package pctagg

import (
	"bytes"
	"encoding/gob"
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"testing"
)

// snapshot_v1.gob was written by the format's first writer, which boxed every
// cell through Table.Get; regenerating it with a later writer would prove
// nothing about compatibility, so the flag exists only for a format bump.
var writeSnapshotFixture = flag.Bool("write-snapshot-fixture", false, "rewrite testdata/snapshot_v1.gob with the current Save")

const snapshotFixture = "testdata/snapshot_v1.gob"

// fixtureNulls is the data of the fixture's "nulls" table: 130 rows, so a
// column's NULL bitmap spans three words, with NULLs in every column type on
// both sides of each word boundary.
func fixtureNulls() [][]any {
	rows := make([][]any, 130)
	for r := range rows {
		row := []any{int64(r), int64(r*7 - 100), float64(r)/4 - 3, fmt.Sprintf("s%03d", r), r%2 == 0}
		for c, every := range []int{3, 5, 7, 11} {
			if r%every == c || r == 63 || r == 64 || r == 65 {
				row[c+1] = nil
			}
		}
		rows[r] = row
	}
	return rows
}

// fixtureDB holds the demo sales table and the nulls table, with a primary
// key and a secondary index to restore.
func fixtureDB(t testing.TB) *DB {
	t.Helper()
	db := demoDB(t)
	if _, err := db.Exec(`CREATE TABLE nulls (id INTEGER, i INTEGER, f REAL, s VARCHAR, b BOOLEAN, PRIMARY KEY(id));
		CREATE INDEX nulls_s ON nulls (s)`); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("nulls", fixtureNulls()); err != nil {
		t.Fatal(err)
	}
	return db
}

// selectAll renders every table of db, rows in storage order.
func selectAll(t *testing.T, db *DB) map[string][][]any {
	t.Helper()
	out := map[string][][]any{}
	for _, name := range db.Tables() {
		rows, err := db.Query("SELECT * FROM " + name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = rows.Data
	}
	return out
}

// TestSnapshotV1Fixture: a file the first writer produced still loads, cell
// for cell, with its primary key and index.
func TestSnapshotV1Fixture(t *testing.T) {
	if *writeSnapshotFixture {
		var buf bytes.Buffer
		if err := fixtureDB(t).Save(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snapshotFixture, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(snapshotFixture)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	db := Open()
	if err := db.Load(f); err != nil {
		t.Fatal(err)
	}
	got, want := selectAll(t, db), selectAll(t, fixtureDB(t))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fixture loaded as\n%v\nwant\n%v", got, want)
	}
	if got := got["nulls"]; !reflect.DeepEqual(got, fixtureNulls()) {
		t.Fatalf("nulls table reads back as %v", got)
	}
	for _, ddl := range []string{"CREATE INDEX nulls_s ON nulls (s)", "CREATE INDEX pk_nulls ON nulls (id)"} {
		if _, err := db.Exec(ddl); err == nil {
			t.Errorf("%s succeeded: the restored index is missing", ddl)
		}
	}
}

// TestSnapshotVarcharRoundTripIsByteIdentical: Save writes a VARCHAR column
// as its strings — "" under a NULL — whatever its dictionary, and Load codes
// them afresh, so saving a loaded snapshot reproduces it byte for byte. The
// table mixes NULL, the empty string and repeated strings, and an UPDATE
// and a DELETE leave its dictionary holding strings no row has.
func TestSnapshotVarcharRoundTripIsByteIdentical(t *testing.T) {
	db := Open()
	if _, err := db.Exec("CREATE TABLE v (id INTEGER, s VARCHAR, t VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	var rows [][]any
	for r := 0; r < 150; r++ {
		s, u := any([]string{"a", "", "bb", "a", ""}[r%5]), any(fmt.Sprint("t", r%3))
		if r%4 == 0 {
			s = nil
		}
		if r%11 == 0 {
			u = nil
		}
		rows = append(rows, []any{int64(r), s, u})
	}
	if err := db.InsertRows("v", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("UPDATE v SET s = 'gone' WHERE id = 3; UPDATE v SET s = NULL WHERE id = 3; DELETE FROM v WHERE t = 't2'"); err != nil {
		t.Fatal(err)
	}
	var first, second bytes.Buffer
	if err := db.Save(&first); err != nil {
		t.Fatal(err)
	}
	again := Open()
	if err := again.Load(bytes.NewReader(first.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := again.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("a loaded snapshot saves to %d different bytes, was %d", second.Len(), first.Len())
	}
	if got, want := dump(again), dump(db); got != want {
		t.Fatalf("round trip reads\n%s\nwant\n%s", got, want)
	}
}

// encodeSnap writes a hand-built snapshot, as a damaged or hostile file
// would arrive.
func encodeSnap(t *testing.T, tables ...snapTable) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snapshot{Magic: snapMagic, Version: 1, Tables: tables}); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// loadFails loads the snapshot into db, which must refuse it and keep the
// tables it had.
func loadFails(t *testing.T, db *DB, snap *bytes.Buffer) {
	t.Helper()
	before := db.Tables()
	if err := db.Load(snap); err == nil {
		t.Fatal("the snapshot loaded")
	}
	if got := db.Tables(); !slices.Equal(got, before) {
		t.Errorf("a failed Load left tables %v, want %v", got, before)
	}
}

func TestLoadRejectsRowCountPastColumn(t *testing.T) {
	short := snapTable{Name: "t", NumRows: 5, Columns: []snapColumn{{Name: "a", Type: 0, Ints: []int64{1, 2, 3}, Nulls: make([]bool, 5)}}}
	loadFails(t, demoDB(t), encodeSnap(t, short))
	flags := snapTable{Name: "t", NumRows: 3, Columns: []snapColumn{{Name: "a", Type: 0, Ints: []int64{1, 2, 3}, Nulls: make([]bool, 2)}}}
	loadFails(t, demoDB(t), encodeSnap(t, flags))
}

func TestLoadFailureAddsNoTable(t *testing.T) {
	fresh := snapTable{Name: "fresh", NumRows: 1, Columns: []snapColumn{{Name: "a", Type: 0, Ints: []int64{1}, Nulls: []bool{false}}}}
	clash := snapTable{Name: "SALES", NumRows: 0, Columns: []snapColumn{{Name: "a", Type: 0}}}
	loadFails(t, demoDB(t), encodeSnap(t, fresh, clash))
	loadFails(t, Open(), encodeSnap(t, fresh, fresh)) // a name twice in one snapshot
	badKey := fresh
	badKey.Indexes = []snapIndex{{Name: "ix", Columns: []string{"nope"}}}
	loadFails(t, Open(), encodeSnap(t, fresh, badKey))
}

func TestLoadRejectsUnknownColumnType(t *testing.T) {
	db := Open()
	loadFails(t, db, encodeSnap(t, snapTable{Name: "odd", Columns: []snapColumn{{Name: "a", Type: 9}}}))
	if _, err := db.Exec("INSERT INTO odd VALUES (1)"); err == nil {
		t.Error("INSERT into the refused table succeeded")
	}
}

// dump renders every table of db, or the error reading it.
func dump(db *DB) string {
	out := fmt.Sprintln(db.Tables())
	for _, name := range db.Tables() {
		rows, err := db.Query("SELECT * FROM " + name)
		if err != nil {
			out += fmt.Sprintln(name, err)
			continue
		}
		out += fmt.Sprintln(name, rows.Columns, rows.Data)
	}
	return out
}

// FuzzLoad: a snapshot file is outside input. Load never panics; a Load
// that fails leaves the tables as they were; one that succeeds saves and
// loads again into a fresh database to the same contents.
func FuzzLoad(f *testing.F) {
	var demo bytes.Buffer
	if err := demoDB(f).Save(&demo); err != nil {
		f.Fatal(err)
	}
	good := demo.Bytes()
	f.Add(good)
	for _, n := range []int{0, 10, len(good) / 2, len(good) - 1} {
		f.Add(good[:n])
	}
	for _, at := range []int{20, len(good) / 3, len(good) / 2, len(good) - 8} {
		flipped := slices.Clone(good)
		flipped[at] ^= 0x5a
		f.Add(flipped)
	}
	if fixture, err := os.ReadFile(snapshotFixture); err == nil {
		f.Add(fixture)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db := Open()
		if _, err := db.Exec("CREATE TABLE keep (a INTEGER)"); err != nil {
			t.Fatal(err)
		}
		before := db.Tables()
		if err := db.Load(bytes.NewReader(data)); err != nil {
			if got := db.Tables(); !slices.Equal(got, before) {
				t.Fatalf("a failed Load (%v) left tables %v, want %v", err, got, before)
			}
			return
		}
		var saved bytes.Buffer
		if err := db.Save(&saved); err != nil {
			t.Fatal(err)
		}
		again := Open()
		if err := again.Load(&saved); err != nil {
			t.Fatalf("a saved snapshot does not load: %v", err)
		}
		if got, want := dump(again), dump(db); got != want {
			t.Fatalf("round trip reads\n%s\nwant\n%s", got, want)
		}
	})
}
