package storage

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/value"
)

func vectorTable(t *testing.T) *Table {
	t.Helper()
	tb, err := NewTable("v", Schema{{Name: "i", Type: TypeInt}, {Name: "f", Type: TypeFloat}, {Name: "s", Type: TypeString}, {Name: "b", Type: TypeBool}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateIndex("v_i", []string{"i"}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		row := []value.Value{value.NewInt(int64(r)), value.NewFloat(float64(r) / 2), value.NewString(fmt.Sprint("s", r)), value.NewBool(r%2 == 0)}
		if r == 3 {
			row = []value.Value{value.Null, value.Null, value.Null, value.Null}
		}
		if _, err := tb.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func render(tb *Table) string {
	var sb strings.Builder
	for r := 0; r < tb.NumRows(); r++ {
		fmt.Fprintln(&sb, tb.Row(r, nil))
	}
	return sb.String()
}

// TestGatherCarriesTypesAndNulls: a gather is a typed copy in id order, NULL
// where the cell is NULL and where the id is an outer join's -1, and the
// vector's buffers are reused from one batch to the next.
func TestGatherCarriesTypesAndNulls(t *testing.T) {
	tb := vectorTable(t)
	ids := []int32{4, -1, 3, 0, 0}
	var v Vector
	for col := 0; col < tb.NumCols(); col++ {
		tb.Gather(col, ids, &v)
		if v.Boxed || v.Type != tb.Schema()[col].Type || v.Len() != len(ids) {
			t.Fatalf("column %d gathered as %+v", col, v)
		}
		for k, id := range ids {
			want := value.Null
			if id >= 0 {
				want = tb.Get(int(id), col)
			}
			if got := v.Value(k); got.Kind() != want.Kind() || value.Compare(got, want) != 0 || v.Null(k) != want.IsNull() {
				t.Errorf("column %d cell %d = %v, want %v", col, k, got, want)
			}
		}
	}
	tb.Gather(0, []int32{1, 2}, &v)
	if v.Len() != 2 || v.Null(0) || v.Null(1) || v.Ints[1] != 2 {
		t.Errorf("a second gather into the same vector reads %+v", v)
	}
}

// cells renders the first n cells of v with their kinds.
func cells(v *Vector, n int) string {
	var sb strings.Builder
	for k := 0; k < n; k++ {
		fmt.Fprintf(&sb, "%v:%v ", v.Value(k).Kind(), v.Value(k))
	}
	return sb.String()
}

// TestVectorGatherAppendFill: a gather from a boxed vector stays boxed, -1
// reading NULL; a collector's vector takes its first batch's form, stays
// typed while the batches agree on the type and is boxed — its cells kept —
// from the first that does not; and an evaluated batch is typed when its
// values are of one kind, NULL aside.
func TestVectorGatherAppendFill(t *testing.T) {
	boxed := &Vector{}
	boxed.ResizeBoxed(3)
	copy(boxed.Vals, []value.Value{value.NewString("a"), value.NewInt(1), value.Null})
	var g Vector
	g.Gather(boxed, []int32{1, -1, 0})
	if !g.Boxed || cells(&g, 3) != "INTEGER:1 NULL:NULL VARCHAR:a " {
		t.Errorf("gather from a boxed vector: %+v", g)
	}

	ints := &Vector{}
	ints.Resize(TypeInt, 2)
	copy(ints.Ints, []int64{5, 6})
	ints.SetNull(1)
	var c Vector
	c.Append(ints, 2)
	c.Append(ints, 1)
	if c.Boxed || c.Type != TypeInt || cells(&c, 3) != "INTEGER:5 NULL:NULL INTEGER:5 " {
		t.Errorf("typed batches of one type: %+v", c)
	}
	floats := &Vector{}
	floats.Resize(TypeFloat, 1)
	floats.Flts[0] = 2.5
	c.Append(floats, 1)
	c.Append(boxed, 2)
	if !c.Boxed || cells(&c, 6) != "INTEGER:5 NULL:NULL INTEGER:5 REAL:2.5 VARCHAR:a INTEGER:1 " {
		t.Errorf("a batch of another type: %+v", c)
	}

	var f Vector
	for _, tc := range []struct {
		vals  []value.Value
		boxed bool
		typ   ColumnType
	}{
		{[]value.Value{value.NewFloat(1.5), value.Null, value.NewFloat(-0.5)}, false, TypeFloat},
		{[]value.Value{value.Null, value.NewString("x")}, false, TypeString},
		{[]value.Value{value.Null, value.Null}, false, TypeInt},
		{[]value.Value{value.NewBool(true)}, false, TypeBool},
		{[]value.Value{value.NewInt(1), value.NewFloat(1)}, true, 0},
	} {
		f.Fill(tc.vals)
		want := &Vector{Boxed: true, Vals: tc.vals}
		if f.Boxed != tc.boxed || !tc.boxed && f.Type != tc.typ || cells(&f, len(tc.vals)) != cells(want, len(tc.vals)) {
			t.Errorf("Fill(%v) = %+v", tc.vals, f)
		}
	}
}

// TestAppendVectorsMatchesAppendRow: a batch lands as its rows would one by
// one — typed vectors copied, an INTEGER vector widened into a REAL column,
// boxed and mistyped vectors converted cell by cell, absent columns NULL, the
// index fed — and a batch that cannot, or whose gate refuses a row, leaves the
// table untouched and reports what the first failing row would have.
func TestAppendVectorsMatchesAppendRow(t *testing.T) {
	batch := func() []*Vector {
		ints := &Vector{}
		ints.Resize(TypeInt, 3)
		copy(ints.Ints, []int64{7, 8, 9})
		ints.SetNull(1)
		boxed := &Vector{}
		boxed.ResizeBoxed(3)
		copy(boxed.Vals, []value.Value{value.NewString("x"), value.Null, value.NewString("z")})
		return []*Vector{ints, ints, boxed, nil}
	}
	want, got := vectorTable(t), vectorTable(t)
	for k := 0; k < 3; k++ {
		row := make([]value.Value, 4)
		for c, v := range batch() {
			if v != nil {
				row[c] = v.Value(k)
			}
		}
		if _, err := want.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	epoch, gated := got.Epoch(), 0
	if err := got.AppendVectors(batch(), 3, func() error { gated++; return nil }); err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) || gated != 3 || got.Epoch() <= epoch {
		t.Errorf("batch appended (gate called %d times):\n%swant:\n%s", gated, render(got), render(want))
	}
	if rows := lookupValue(got, value.NewInt(9)); len(rows) != 1 || rows[0] != 7 {
		t.Errorf("index holds %v for the appended key 9, want [7]", rows)
	}
	if rows := lookupValue(got, value.Null); len(rows) != 2 {
		t.Errorf("index holds %v for NULL, want two rows", rows)
	}

	// Failures: the first failing row's error, its first failing column's, the
	// gate's ahead of the conversion's; nothing appended.
	before := render(got)
	bad := batch()
	bad[2].Vals[2] = value.NewInt(1)                                                                          // row 2: INTEGER into VARCHAR
	bad[3] = &Vector{Boxed: true, Vals: []value.Value{value.NewBool(true), value.NewInt(0), value.NewInt(0)}} // row 1: INTEGER into BOOLEAN
	floats := &Vector{}
	floats.Resize(TypeFloat, 3)
	copy(floats.Flts, []float64{1, 2.5, 3})
	bad[0] = floats // row 1, an earlier column: 2.5 into INTEGER
	gated = 0
	err := got.AppendVectors(bad, 3, func() error { gated++; return nil })
	if wantErr := `storage: table "v" column "i": storage: cannot store REAL 2.5 in INTEGER column`; err == nil || err.Error() != wantErr {
		t.Errorf("err = %v, want %s", err, wantErr)
	}
	if gated != 2 {
		t.Errorf("gate called %d times before a failure at row 1, want 2", gated)
	}
	refuse := errors.New("refused")
	if err := got.AppendVectors(bad, 3, func() error { return refuse }); err != refuse {
		t.Errorf("err = %v, want the gate's at row 0", err)
	}
	if err := got.AppendVectors(batch()[:3], 3, nil); err == nil {
		t.Error("a batch of three columns into a table of four was accepted")
	}
	if render(got) != before || got.NumRows() != 8 {
		t.Errorf("a failed batch changed the table:\n%s", render(got))
	}
}
