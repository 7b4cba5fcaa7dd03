package storage

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/value"
)

func testSchema() Schema {
	return Schema{
		{Name: "state", Type: TypeString},
		{Name: "city", Type: TypeString},
		{Name: "salesAmt", Type: TypeInt},
	}
}

func mustTable(t *testing.T) *Table {
	t.Helper()
	tb, err := NewTable("sales", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable("empty", nil); err == nil {
		t.Error("empty schema must fail")
	}
	dup := Schema{{Name: "a", Type: TypeInt}, {Name: "A", Type: TypeInt}}
	if _, err := NewTable("dup", dup); err == nil {
		t.Error("duplicate (case-insensitive) columns must fail")
	}
	if _, err := NewTable("odd", Schema{{Name: "a", Type: TypeInt}, {Name: "b", Type: 9}}); err == nil {
		t.Error("an unknown column type must fail")
	}
}

func TestAppendGetRoundTrip(t *testing.T) {
	tb := mustTable(t)
	rows := [][]value.Value{
		{value.NewString("CA"), value.NewString("SF"), value.NewInt(13)},
		{value.NewString("TX"), value.NewString("Houston"), value.Null},
		{value.Null, value.Null, value.NewInt(0)},
	}
	for i, r := range rows {
		rid, err := tb.AppendRow(r)
		if err != nil {
			t.Fatal(err)
		}
		if rid != i {
			t.Errorf("row id %d, want %d", rid, i)
		}
	}
	if tb.NumRows() != 3 || tb.NumCols() != 3 {
		t.Fatalf("dims = %dx%d", tb.NumRows(), tb.NumCols())
	}
	for r, want := range rows {
		for c := range want {
			got := tb.Get(r, c)
			if value.Compare(got, want[c]) != 0 {
				t.Errorf("Get(%d,%d) = %v, want %v", r, c, got, want[c])
			}
		}
	}
	row := tb.Row(1, nil)
	if row[0].Str() != "TX" || !row[2].IsNull() {
		t.Errorf("Row(1) = %v", row)
	}
}

func TestAppendTypeMismatch(t *testing.T) {
	tb := mustTable(t)
	_, err := tb.AppendRow([]value.Value{value.NewInt(1), value.NewString("x"), value.NewInt(2)})
	if err == nil {
		t.Fatal("int into VARCHAR must fail")
	}
	// A failed append must not leave ragged columns.
	if tb.NumRows() != 0 {
		t.Fatalf("NumRows = %d after failed append", tb.NumRows())
	}
	if _, err := tb.AppendRow([]value.Value{value.NewString("CA"), value.NewString("SF"), value.NewInt(1)}); err != nil {
		t.Fatalf("append after failure: %v", err)
	}
	if tb.Get(0, 2).Int() != 1 {
		t.Error("columns misaligned after rollback")
	}
}

func TestAppendArityMismatch(t *testing.T) {
	tb := mustTable(t)
	if _, err := tb.AppendRow([]value.Value{value.NewString("CA")}); err == nil {
		t.Error("short row must fail")
	}
}

func TestIntColumnStoresExactFloats(t *testing.T) {
	tb := mustTable(t)
	// Float 2.0 fits an INTEGER column; 2.5 does not.
	if _, err := tb.AppendRow([]value.Value{value.NewString("a"), value.NewString("b"), value.NewFloat(2)}); err != nil {
		t.Errorf("exact float into int: %v", err)
	}
	if _, err := tb.AppendRow([]value.Value{value.NewString("a"), value.NewString("b"), value.NewFloat(2.5)}); err == nil {
		t.Error("fractional float into int must fail")
	}
}

func TestSetInPlace(t *testing.T) {
	tb := mustTable(t)
	tb.AppendRow([]value.Value{value.NewString("CA"), value.NewString("SF"), value.NewInt(10)})
	if err := tb.set(0, 2, value.NewInt(99)); err != nil {
		t.Fatal(err)
	}
	if got := tb.Get(0, 2).Int(); got != 99 {
		t.Errorf("after Set, Get = %d", got)
	}
	if err := tb.set(0, 2, value.Null); err != nil {
		t.Fatal(err)
	}
	if !tb.Get(0, 2).IsNull() {
		t.Error("Set NULL not visible")
	}
	// Un-null again.
	if err := tb.set(0, 2, value.NewInt(7)); err != nil {
		t.Fatal(err)
	}
	if tb.Get(0, 2).Int() != 7 {
		t.Error("Set after NULL not visible")
	}
	if err := tb.set(5, 0, value.Null); err == nil {
		t.Error("out-of-range Set must fail")
	}
}

// refIndex is the reference build behind lookup: each key's rows, keyed by
// the value.AppendKey bytes of its cells, over the first n rows. Each build
// is a new one, so a pointer tells a cached build from a new one.
type refIndex struct {
	rows map[string][]int
	n    int
}

// lookupValue reads the rows holding key off the table's first index, as a
// join would: through JoinIndex — the cached build, a new one after any
// write — with refIndex as the build.
func lookupValue(tb *Table, key value.Value) []int {
	return readIndex(tb).rows[string(value.EncodeKey(key))]
}

func lookup(tb *Table, state string) []int { return lookupValue(tb, value.NewString(state)) }

func readIndex(tb *Table) *refIndex {
	ix := tb.Indexes()[0]
	col := tb.Schema().ColumnIndex(ix.Columns()[0])
	built, err := tb.JoinIndex(ix, func() (any, error) {
		ref := &refIndex{rows: map[string][]int{}}
		for ; ref.n < tb.NumRows(); ref.n++ {
			k := string(value.EncodeKey(tb.Get(ref.n, col)))
			ref.rows[k] = append(ref.rows[k], ref.n)
		}
		return ref, nil
	})
	if err != nil {
		panic(err)
	}
	return built.(*refIndex)
}

func TestIndexMaintenance(t *testing.T) {
	tb := mustTable(t)
	tb.AppendRow([]value.Value{value.NewString("CA"), value.NewString("SF"), value.NewInt(1)})
	tb.AppendRow([]value.Value{value.NewString("CA"), value.NewString("LA"), value.NewInt(2)})
	tb.AppendRow([]value.Value{value.NewString("TX"), value.NewString("Dallas"), value.NewInt(3)})
	if _, err := tb.CreateIndex("by_state", []string{"state"}); err != nil {
		t.Fatal(err)
	}
	if got := lookup(tb, "CA"); len(got) != 2 {
		t.Errorf("CA rows = %v", got)
	}
	// An append drops the cached index: the next read builds a new one and
	// leaves the old one as it was.
	old := readIndex(tb)
	tb.AppendRow([]value.Value{value.NewString("CA"), value.NewString("SD"), value.NewInt(4)})
	if got := lookup(tb, "CA"); len(got) != 3 || readIndex(tb) == old || len(old.rows[string(value.EncodeKey(value.NewString("CA")))]) != 2 {
		t.Errorf("CA rows after append = %v", got)
	}
	// So does an update to the indexed column.
	old = readIndex(tb)
	if err := tb.set(2, 0, value.NewString("CA")); err != nil {
		t.Fatal(err)
	}
	if got := lookup(tb, "CA"); len(got) != 4 || readIndex(tb) == old {
		t.Errorf("CA rows after update = %v", got)
	}
	if got := lookup(tb, "TX"); len(got) != 0 {
		t.Errorf("TX rows after update = %v", got)
	}
	if err := tb.set(0, 2, value.NewInt(100)); err != nil {
		t.Fatal(err)
	}
	if got := lookup(tb, "CA"); len(got) != 4 {
		t.Errorf("CA rows after measure update = %v", got)
	}
}

// TestJoinIndexCache: what JoinIndex hands back follows every write. Reads
// with no write between them share one build; every write — an append, a
// cell, a truncation, an UPDATE's opening — makes the next read build anew;
// a failed build caches nothing; a staging clone keeps the definitions and
// none of the builds.
func TestJoinIndexCache(t *testing.T) {
	counted, calls := indexed(t), 0
	count := func() (any, error) { calls++; return calls, nil }
	first, _ := counted.JoinIndex(counted.Indexes()[0], count)
	again, _ := counted.JoinIndex(counted.Indexes()[0], count)
	if first != again || calls != 1 {
		t.Fatalf("two reads built %d times", calls)
	}
	if _, err := counted.JoinIndex(counted.Indexes()[0], func() (any, error) { return nil, errors.New("no") }); err != nil {
		t.Fatalf("a cached index must not be rebuilt: %v", err)
	}
	tb := indexed(t)
	for _, w := range []struct {
		name  string
		write func()
	}{
		{"append", func() { tb.AppendRow([]value.Value{value.NewString("NV"), value.NewString("c"), value.NewInt(1)}) }},
		{"set", func() { _ = tb.set(0, 0, value.NewString("NV")) }},
		{"append again", func() { tb.AppendRow([]value.Value{value.NewString("NV"), value.NewString("c"), value.Null}) }},
		{"TruncateTo", func() { tb.TruncateTo(3) }},
		{"BeginUpdate", func() { tb.BeginUpdate().Rollback() }},
		{"Truncate", tb.Truncate},
	} {
		old := readIndex(tb)
		w.write()
		if got := readIndex(tb); got == old || got.n != tb.NumRows() {
			t.Errorf("after %s: the cached build over %d rows, want a new one over %d", w.name, got.n, tb.NumRows())
		}
	}
	tb.AppendRow([]value.Value{value.NewString("CA"), value.NewString("c"), value.NewInt(1)})
	if _, err := tb.JoinIndex(tb.Indexes()[0], func() (any, error) { return nil, errors.New("no") }); err == nil {
		t.Fatal("a failed build must report its error")
	}
	if got := readIndex(tb); got.n != 1 || !slices.Equal(lookup(tb, "CA"), []int{0}) {
		t.Errorf("after a failed build: a build over %d rows, CA %v; want one over the table's row", got.n, lookup(tb, "CA"))
	}
	if c := tb.Without([]int32{0}); len(c.Indexes()) != 1 || c.Indexes()[0] == tb.Indexes()[0] || readIndex(c).n != 0 {
		t.Error("a staging table must declare the index afresh, with nothing built")
	}
}

func TestIndexOnAndDuplicates(t *testing.T) {
	tb := mustTable(t)
	if _, err := tb.CreateIndex("i1", []string{"state", "city"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateIndex("i1", []string{"state"}); err == nil {
		t.Error("duplicate index name must fail")
	}
	if _, err := tb.CreateIndex("i2", []string{"nosuch"}); err == nil {
		t.Error("index on missing column must fail")
	}
	if tb.IndexOn([]string{"state", "city"}) == nil {
		t.Error("IndexOn must find i1")
	}
	if tb.IndexOn([]string{"city", "state"}) != nil {
		t.Error("IndexOn is order-sensitive")
	}
	if tb.IndexOn([]string{"STATE", "CITY"}) == nil {
		t.Error("IndexOn must be case-insensitive")
	}
}

func TestPrimaryKey(t *testing.T) {
	tb := mustTable(t)
	if err := tb.SetPrimaryKey([]string{"state", "city"}); err != nil {
		t.Fatal(err)
	}
	if got := tb.PrimaryKey(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("PrimaryKey = %v", got)
	}
	if tb.IndexOn([]string{"state", "city"}) == nil {
		t.Error("primary key must create an index")
	}
	if err := tb.SetPrimaryKey([]string{"bogus"}); err == nil {
		t.Error("PK on missing column must fail")
	}
}

func TestTruncate(t *testing.T) {
	tb := mustTable(t)
	tb.AppendRow([]value.Value{value.NewString("CA"), value.NewString("SF"), value.NewInt(1)})
	ix, _ := tb.CreateIndex("by_state", []string{"state"})
	if got := lookup(tb, "CA"); len(got) != 1 {
		t.Fatalf("CA rows = %v", got)
	}
	tb.Truncate()
	if tb.NumRows() != 0 {
		t.Errorf("rows after truncate = %d", tb.NumRows())
	}
	if tb.IndexOn([]string{"state"}) != ix || len(lookup(tb, "CA")) != 0 {
		t.Error("truncate must keep the index, empty")
	}
	// Table still usable.
	if _, err := tb.AppendRow([]value.Value{value.NewString("TX"), value.NewString("D"), value.NewInt(2)}); err != nil {
		t.Fatal(err)
	}
	if got := lookup(tb, "TX"); len(got) != 1 {
		t.Error("index not maintained after truncate")
	}
}

func TestRawColumnAccessors(t *testing.T) {
	tb := mustTable(t)
	tb.AppendRow([]value.Value{value.NewString("CA"), value.NewString("SF"), value.NewInt(5)})
	tb.AppendRow([]value.Value{value.NewString("CA"), value.NewString("SF"), value.Null})
	c := tb.Column(2)
	if c.Type != TypeInt || c.Boxed || len(c.Ints) != 2 || c.Ints[0] != 5 || len(c.Flts)+len(c.Codes)+len(c.Bools) != 0 {
		t.Fatalf("Column(2) = %+v", c)
	}
	if c.Nulls.Get(0) || !c.Nulls.Get(1) || c.Null(0) || !c.Null(1) {
		t.Error("null bitmap wrong")
	}
	if s := tb.Column(0); s.Type != TypeString || len(s.Codes) != 2 || s.Codes[1] != 0 || s.Dict.Len() != 1 || len(s.Nulls) != 0 {
		t.Errorf("Column(0) = %+v, want two VARCHAR cells of one code and no NULL word", s)
	}
}

// TestCellGetterMatchesGet: the typed getter returns exactly what Get
// returns for every column type, NULLs included.
func TestCellGetterMatchesGet(t *testing.T) {
	tb, err := NewTable("t", Schema{
		{Name: "i", Type: TypeInt}, {Name: "f", Type: TypeFloat},
		{Name: "s", Type: TypeString}, {Name: "b", Type: TypeBool},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]value.Value{
		{value.NewInt(7), value.NewFloat(1.5), value.NewString("x"), value.NewBool(true)},
		{value.Null, value.Null, value.Null, value.Null},
		{value.NewInt(-1), value.NewFloat(0), value.NewString(""), value.NewBool(false)},
	}
	for _, r := range rows {
		if _, err := tb.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	same := func(a, b value.Value) bool {
		return a.IsNull() == b.IsNull() && (a.IsNull() || a.Kind() == b.Kind() && value.Compare(a, b) == 0)
	}
	for c := 0; c < tb.NumCols(); c++ {
		get := tb.CellGetter(c)
		for r := range rows {
			if got, want := get(r), tb.Get(r, c); !same(got, want) || !same(got, rows[r][c]) {
				t.Errorf("CellGetter(%d)(%d) = %v, want %v", c, r, got, rows[r][c])
			}
		}
	}
}

func TestSchemaHelpers(t *testing.T) {
	s := testSchema()
	if s.ColumnIndex("CITY") != 1 {
		t.Error("ColumnIndex must be case-insensitive")
	}
	if s.ColumnIndex("none") != -1 {
		t.Error("missing column must be -1")
	}
	names := s.names()
	if len(names) != 3 || names[2] != "salesAmt" {
		t.Errorf("Names = %v", names)
	}
	if s.String() == "" {
		t.Error("Schema.String empty")
	}
}

func TestColumnTypeNames(t *testing.T) {
	kinds := map[value.Kind]bool{}
	for _, ct := range []ColumnType{TypeInt, TypeFloat, TypeString, TypeBool} {
		if ct.String() == "" {
			t.Errorf("type %d unnamed", ct)
		}
		if k := ct.Kind(); k == value.KindNull || kinds[k] {
			t.Errorf("type %s stores kind %v", ct, k)
		}
		kinds[ct.Kind()] = true
	}
	if odd := ColumnType(9); odd.String() != "ColumnType(9)" || odd.Kind() != value.KindNull {
		t.Errorf("unknown type reads as %s of kind %v", odd, odd.Kind())
	}
}

// indexed is a five-row table indexed on state, with a NULL measure.
func indexed(t *testing.T) *Table {
	t.Helper()
	tb := mustTable(t)
	for i, st := range []string{"CA", "TX", "CA", "TX", "CA"} {
		amt := value.NewInt(int64(i))
		if i == 3 {
			amt = value.Null
		}
		if _, err := tb.AppendRow([]value.Value{value.NewString(st), value.NewString("c"), amt}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.CreateIndex("by_state", []string{"state"}); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestUndoRollbackRestoresCellsIndexesAndEpoch(t *testing.T) {
	tb := indexed(t)
	lookup(tb, "CA") // cached, so the writes must drop it
	epoch := tb.Epoch()
	u := tb.BeginUpdate()
	for _, w := range []struct {
		row, col int
		v        value.Value
	}{{0, 0, value.NewString("TX")}, {0, 2, value.Null}, {3, 2, value.NewInt(9)}, {2, 0, value.NewString("NV")}, {0, 0, value.NewString("NV")}} {
		if err := u.Set(w.row, w.col, w.v); err != nil {
			t.Fatal(err)
		}
	}
	if got := lookup(tb, "NV"); !slices.Equal(got, []int{0, 2}) || tb.Epoch() == epoch {
		t.Fatalf("mid-update: NV rows %v (want ascending [0 2]), epoch moved: %v", got, tb.Epoch() != epoch)
	}
	if err := u.Set(1, 2, value.NewString("x")); err == nil || tb.Get(1, 2).Int() != 1 {
		t.Fatalf("a value the column cannot store: err %v, cell %v", err, tb.Get(1, 2))
	}
	u.Rollback()
	if tb.Epoch() != epoch {
		t.Errorf("epoch %d after rollback, want %d", tb.Epoch(), epoch)
	}
	if ca, tx, nv := lookup(tb, "CA"), lookup(tb, "TX"), lookup(tb, "NV"); !slices.Equal(ca, []int{0, 2, 4}) || !slices.Equal(tx, []int{1, 3}) || len(nv) != 0 {
		t.Errorf("index after rollback: CA %v TX %v NV %v", ca, tx, nv)
	}
	if tb.Get(0, 0).Str() != "CA" || tb.Get(0, 2).Int() != 0 || !tb.Get(3, 2).IsNull() || tb.Get(2, 0).Str() != "CA" {
		t.Errorf("cells after rollback: %v %v %v", tb.Row(0, nil), tb.Row(2, nil), tb.Row(3, nil))
	}
}

func TestTruncateToRemovesOnlyDiscardedIndexEntries(t *testing.T) {
	tb := indexed(t)
	ix := tb.Indexes()[0]
	lookup(tb, "CA") // cached, so the truncation must drop it
	tb.TruncateTo(2)
	if tb.Indexes()[0] != ix || readIndex(tb).n != 2 {
		t.Fatalf("index %p over %d rows after TruncateTo(2), want the same definition %p over 2", tb.Indexes()[0], readIndex(tb).n, ix)
	}
	if ca, tx := lookup(tb, "CA"), lookup(tb, "TX"); !slices.Equal(ca, []int{0}) || !slices.Equal(tx, []int{1}) {
		t.Errorf("index after TruncateTo: CA %v TX %v", ca, tx)
	}
	// The discarded NULL's bit is gone: a row appended there is not NULL.
	tb.AppendRow([]value.Value{value.NewString("TX"), value.NewString("c"), value.NewInt(7)})
	tb.AppendRow([]value.Value{value.NewString("TX"), value.NewString("c"), value.NewInt(8)})
	if tb.Get(3, 2).IsNull() || !slices.Equal(lookup(tb, "TX"), []int{1, 2, 3}) {
		t.Errorf("after re-append: cell %v, TX %v", tb.Get(3, 2), lookup(tb, "TX"))
	}
}

func TestWithoutGathersKeptRows(t *testing.T) {
	tb := indexed(t)
	epoch := tb.Epoch()
	c := tb.Without([]int32{0, 3})
	if c.NumRows() != 3 || tb.NumRows() != 5 || tb.Epoch() != epoch || c.Epoch() <= epoch {
		t.Fatalf("rows %d (source %d), epochs %d → %d", c.NumRows(), tb.NumRows(), epoch, c.Epoch())
	}
	for r, want := range []int64{1, 2, 4} {
		if c.Get(r, 2).IsNull() || c.Get(r, 2).Int() != want {
			t.Errorf("row %d = %v, want amt %d", r, c.Row(r, nil), want)
		}
	}
	if ca, tx := lookup(c, "CA"), lookup(c, "TX"); !slices.Equal(ca, []int{1, 2}) || !slices.Equal(tx, []int{0}) {
		t.Errorf("index over the gathered rows: CA %v TX %v", ca, tx)
	}
	if kept := tb.Without([]int32{0, 1, 2, 4}); kept.NumRows() != 1 || !kept.Get(0, 2).IsNull() {
		t.Errorf("a kept NULL must stay NULL: %v", kept.Row(0, nil))
	}
	if all := tb.Without(nil); all.NumRows() != 5 || !all.Get(3, 2).IsNull() || all.Get(4, 2).Int() != 4 {
		t.Errorf("dropping nothing must copy everything")
	}
}
