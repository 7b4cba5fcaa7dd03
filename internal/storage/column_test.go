package storage

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/value"
)

// The one column type, where its NULL bitmap has more than one word: every
// path that writes, moves or drops a cell must carry the bit with it.

var wordEdges = []int{63, 64, 65}

// wideRow is row r of a four-type table, NULL in every column when null is.
func wideRow(r int, null bool) []value.Value {
	if null {
		return []value.Value{value.Null, value.Null, value.Null, value.Null}
	}
	return []value.Value{value.NewInt(int64(r)), value.NewFloat(float64(r) / 4), value.NewString(fmt.Sprint("s", r)), value.NewBool(r%3 == 0)}
}

// wideTable appends rows 0..n-1 through AppendRow, all-NULL at the rows
// listed, and returns the table with the rows it holds.
func wideTable(t *testing.T, n int, nulls ...int) (*Table, [][]value.Value) {
	t.Helper()
	tb, err := NewTable("w", Schema{{Name: "i", Type: TypeInt}, {Name: "f", Type: TypeFloat}, {Name: "s", Type: TypeString}, {Name: "b", Type: TypeBool}})
	if err != nil {
		t.Fatal(err)
	}
	var model [][]value.Value
	for r := 0; r < n; r++ {
		row := wideRow(r, slices.Contains(nulls, r))
		if _, err := tb.AppendRow(row); err != nil {
			t.Fatal(err)
		}
		model = append(model, row)
	}
	return tb, model
}

// sameRows reports where tb's rows differ from model, cell by cell and in the
// column's bitmap.
func sameRows(t *testing.T, tb *Table, model [][]value.Value) {
	t.Helper()
	if tb.NumRows() != len(model) {
		t.Fatalf("%d rows, want %d", tb.NumRows(), len(model))
	}
	for r, row := range model {
		for c, want := range row {
			got := tb.Get(r, c)
			if got.Kind() != want.Kind() || value.Compare(got, want) != 0 || tb.Column(c).Nulls.Get(r) != want.IsNull() {
				t.Errorf("row %d column %d = %v (bit %v), want %v", r, c, got, tb.Column(c).Nulls.Get(r), want)
			}
		}
	}
}

func TestNullBitsAtWordEdges(t *testing.T) {
	tb, model := wideTable(t, 70, wordEdges...)
	sameRows(t, tb, model)
	for c := 0; c < tb.NumCols(); c++ {
		if got := tb.Column(c).Nulls; len(got) != 2 || got[0] != 1<<63 || got[1] != 3 {
			t.Errorf("column %d bitmap = %#x, want [1<<63 0x3]", c, got)
		}
	}
}

func TestTruncateToThenAppendReadsNotNull(t *testing.T) {
	tb, model := wideTable(t, 130, 10, 63, 64, 65, 129)
	tb.TruncateTo(64)
	model = model[:64]
	for r := 64; r < 140; r++ {
		row := wideRow(r, false)
		if _, err := tb.AppendRow(row); err != nil {
			t.Fatal(err)
		}
		model = append(model, row)
	}
	sameRows(t, tb, model)
}

// TestAppendVectorsUnalignedNulls: a NULL-bearing batch lands at row 100,
// mid-word, its bits shifted with it — a typed copy, an INTEGER vector
// widened into REAL, a boxed vector converted to VARCHAR and an absent one —
// exactly as the same rows appended one by one.
func TestAppendVectorsUnalignedNulls(t *testing.T) {
	got, _ := wideTable(t, 100, 63)
	want, _ := wideTable(t, 100, 63)
	const n = 70
	ints, widened, boxed := &Vector{}, &Vector{}, &Vector{}
	ints.Resize(TypeInt, n)
	widened.Resize(TypeInt, n)
	boxed.ResizeBoxed(n)
	for k := 0; k < n; k++ {
		ints.Ints[k], widened.Ints[k], boxed.Vals[k] = int64(k), int64(-k), value.NewString(fmt.Sprint("b", k))
		switch {
		case k == 0 || k == 27 || k == 28 || k == 69:
			ints.SetNull(k)
		case k == 1 || k == 63 || k == 64:
			widened.SetNull(k)
		case k == 2 || k == 40:
			boxed.Vals[k] = value.Null
		}
	}
	if err := got.AppendVectors([]*Vector{ints, widened, boxed, nil}, n, nil); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		if _, err := want.AppendRow([]value.Value{ints.Value(k), widened.Value(k), boxed.Value(k), value.Null}); err != nil {
			t.Fatal(err)
		}
	}
	var model [][]value.Value
	for r := 0; r < want.NumRows(); r++ {
		model = append(model, want.Row(r, nil))
	}
	if got.Column(1).Flts[105] != -5 || got.Column(2).Value(110).Str() != "b10" { // floateq:ok exact small integer
		t.Errorf("conversions: %v", got.Row(105, nil))
	}
	sameRows(t, got, model)
}

func TestWithoutNullBearingColumn(t *testing.T) {
	tb, model := wideTable(t, 130, 0, 62, 63, 64, 65, 127, 128)
	drop := []int32{0, 1, 63, 100, 129}
	var kept [][]value.Value
	for r, row := range model {
		if !slices.Contains(drop, int32(r)) {
			kept = append(kept, row)
		}
	}
	sameRows(t, tb.Without(drop), kept)
	sameRows(t, tb, model) // the source is untouched
}

func TestGatherOuterIdsAcrossWords(t *testing.T) {
	tb, model := wideTable(t, 130, wordEdges...)
	ids := []int32{-1, 63, 64, 65, 129, -1, 0}
	var v Vector
	for c := 0; c < tb.NumCols(); c++ {
		tb.Gather(c, ids, &v)
		for k, id := range ids {
			want := value.Null
			if id >= 0 {
				want = model[id][c]
			}
			if got := v.Value(k); got.Kind() != want.Kind() || value.Compare(got, want) != 0 || v.Nulls.Get(k) != want.IsNull() {
				t.Errorf("column %d cell %d (id %d) = %v, want %v", c, k, id, got, want)
			}
		}
	}
}

func TestUndoRollbackRestoresNullCell(t *testing.T) {
	tb, model := wideTable(t, 130, wordEdges...)
	u := tb.BeginUpdate()
	for c := 0; c < tb.NumCols(); c++ {
		for _, w := range []struct {
			r int
			v value.Value
		}{{64, wideRow(1, false)[c]}, {10, value.Null}, {129, value.Null}} {
			if err := u.Set(w.r, c, w.v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !tb.Get(129, 2).IsNull() || tb.Get(64, 0).IsNull() {
		t.Fatalf("writes not visible: %v %v", tb.Row(64, nil), tb.Row(129, nil))
	}
	u.Rollback()
	sameRows(t, tb, model)
}
