package storage

import (
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

func TestIndexMaintenance(t *testing.T) {
	tb := mustTable(t)
	tb.AppendRow([]value.Value{value.NewString("CA"), value.NewString("SF"), value.NewInt(1)})
	tb.AppendRow([]value.Value{value.NewString("CA"), value.NewString("LA"), value.NewInt(2)})
	tb.AppendRow([]value.Value{value.NewString("TX"), value.NewString("Dallas"), value.NewInt(3)})
	ix, err := tb.CreateIndex("by_state", []string{"state"})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Lookup([]value.Value{value.NewString("CA")}); len(got) != 2 {
		t.Errorf("CA rows = %v", got)
	}
	// Appends maintain the index.
	tb.AppendRow([]value.Value{value.NewString("CA"), value.NewString("SD"), value.NewInt(4)})
	if got := ix.Lookup([]value.Value{value.NewString("CA")}); len(got) != 3 {
		t.Errorf("CA rows after append = %v", got)
	}
	// Updates to the indexed column move the row between buckets.
	if err := tb.set(2, 0, value.NewString("CA")); err != nil {
		t.Fatal(err)
	}
	if got := ix.Lookup([]value.Value{value.NewString("CA")}); len(got) != 4 {
		t.Errorf("CA rows after update = %v", got)
	}
	if got := ix.Lookup([]value.Value{value.NewString("TX")}); len(got) != 0 {
		t.Errorf("TX rows after update = %v", got)
	}
	// Updates to non-indexed columns leave the index untouched.
	if err := tb.set(0, 2, value.NewInt(100)); err != nil {
		t.Fatal(err)
	}
	if got := ix.Lookup([]value.Value{value.NewString("CA")}); len(got) != 4 {
		t.Errorf("CA rows after measure update = %v", got)
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
	if ix.Len() != 1 {
		t.Fatalf("index len = %d", ix.Len())
	}
	tb.Truncate()
	if tb.NumRows() != 0 {
		t.Errorf("rows after truncate = %d", tb.NumRows())
	}
	ix2 := tb.IndexOn([]string{"state"})
	if ix2 == nil || ix2.Len() != 0 {
		t.Error("truncate must keep an empty index")
	}
	// Table still usable.
	if _, err := tb.AppendRow([]value.Value{value.NewString("TX"), value.NewString("D"), value.NewInt(2)}); err != nil {
		t.Fatal(err)
	}
	if got := ix2.Lookup([]value.Value{value.NewString("TX")}); len(got) != 1 {
		t.Error("index not maintained after truncate")
	}
}

func TestRawColumnAccessors(t *testing.T) {
	tb := mustTable(t)
	tb.AppendRow([]value.Value{value.NewString("CA"), value.NewString("SF"), value.NewInt(5)})
	tb.AppendRow([]value.Value{value.NewString("CA"), value.NewString("SF"), value.Null})
	vals, isNull, ok := tb.IntColumn(2)
	if !ok || len(vals) != 2 || vals[0] != 5 {
		t.Fatalf("IntColumn = %v %v", vals, ok)
	}
	if isNull(0) || !isNull(1) {
		t.Error("null bitmap wrong")
	}
	if _, _, ok := tb.IntColumn(0); ok {
		t.Error("IntColumn on VARCHAR must report !ok")
	}
	if _, _, ok := tb.FloatColumn(2); ok {
		t.Error("FloatColumn on INTEGER must report !ok")
	}
}

// TestCellGetterAndRowView: the typed getter and the lazy row view return
// exactly what Get returns for every column type, NULLs included, and the
// view follows Seek instead of serving a stale cached cell.
func TestCellGetterAndRowView(t *testing.T) {
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
	view := tb.NewRowView()
	for c := 0; c < tb.NumCols(); c++ {
		get := tb.CellGetter(c)
		for _, r := range []int{0, 1, 2, 0} {
			view.Seek(r)
			want := tb.Get(r, c)
			if got := get(r); !same(got, want) {
				t.Errorf("CellGetter(%d)(%d) = %v, want %v", c, r, got, want)
			}
			for pass := 0; pass < 2; pass++ { // second read hits the cache
				if got := view.ColumnValue(c); !same(got, want) {
					t.Errorf("RowView row %d col %d (read %d) = %v, want %v", r, c, pass, got, want)
				}
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
	for _, ct := range []ColumnType{TypeInt, TypeFloat, TypeString, TypeBool} {
		if ct.String() == "" {
			t.Errorf("type %d unnamed", ct)
		}
		k := ct.Kind()
		back, err := typeForKind(k)
		if err != nil || back != ct {
			t.Errorf("typeForKind(%v) = %v, %v", k, back, err)
		}
	}
	if _, err := typeForKind(value.KindNull); err == nil {
		t.Error("typeForKind(NULL) must fail")
	}
}
