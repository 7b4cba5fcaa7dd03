package storage

import (
	"fmt"
	"testing"

	"repro/internal/value"
)

// stringTable returns a one-column VARCHAR table of n rows: s0, s1, … and a
// NULL every tenth row.
func stringTable(t *testing.T, name string, n int) *Table {
	t.Helper()
	tab, err := NewTable(name, Schema{{Name: "s", Type: TypeString}})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		v := value.NewString(fmt.Sprint("s", r))
		if r%10 == 9 {
			v = value.Null
		}
		if _, err := tab.AppendRow([]value.Value{v}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// column0 renders a table's single column, row by row.
func column0(tab *Table) string {
	out := ""
	for r := 0; r < tab.NumRows(); r++ {
		out += tab.Get(r, 0).String() + "|"
	}
	return out
}

// TestDictCopyOnWrite: a table filled from another's batches shares its
// dictionary, and a string it writes — by INSERT or UPDATE — goes to a copy:
// the other table's dictionary, and so its IntRange, stay as they were. A
// string the shared dictionary holds is written without a copy.
func TestDictCopyOnWrite(t *testing.T) {
	base := stringTable(t, "base", 100)
	derived, err := NewTable("derived", base.Schema())
	if err != nil {
		t.Fatal(err)
	}
	var batch Vector
	base.Gather(0, []int32{3, 9, 4, 3}, &batch)
	if err := derived.AppendVectors([]*Vector{&batch}, 4, nil); err != nil {
		t.Fatal(err)
	}
	shared := base.Column(0).Dict
	if derived.Column(0).Dict != shared {
		t.Fatal("the derived table does not share the base table's dictionary")
	}
	if _, err := derived.AppendRow([]value.Value{value.NewString("s50")}); err != nil {
		t.Fatal(err)
	}
	if derived.Column(0).Dict != shared {
		t.Error("a string the dictionary holds copied it")
	}
	lo, hi, _ := base.IntRange(0)
	for _, write := range []func() error{
		func() error { _, err := derived.AppendRow([]value.Value{value.NewString("new")}); return err },
		func() error { return derived.BeginUpdate().Set(0, 0, value.NewString("newer")) },
	} {
		if err := write(); err != nil {
			t.Fatal(err)
		}
		if l, h, _ := base.IntRange(0); shared.Len() != 90 || l != lo || h != hi || base.Column(0).Dict != shared {
			t.Errorf("the base table's dictionary: %d strings, range %d..%d, want 90, %d..%d", shared.Len(), l, h, lo, hi)
		}
	}
	if got, want := column0(derived), "newer|NULL|s4|s3|s50|new|"; got != want {
		t.Errorf("derived: %s, want %s", got, want)
	}
	if got := base.Get(50, 0).Str(); got != "s50" {
		t.Errorf("base row 50: %q", got)
	}
}

// TestDictCompaction: a DELETE, a TruncateTo and the next UPDATE code a
// VARCHAR column anew when its dictionary holds more than twice its rows and
// 64 more — and only then — keeping every cell and leaving the table read
// before the DELETE as it was.
func TestDictCompaction(t *testing.T) {
	tab := stringTable(t, "t", 1000)
	want := column0(tab)
	if kept := tab.Without(nil); kept.Column(0).Dict != tab.Column(0).Dict {
		t.Error("a DELETE of nothing coded the column anew")
	}
	drop := make([]int32, 0, 990)
	for r := 10; r < 1000; r++ {
		drop = append(drop, int32(r))
	}
	kept := tab.Without(drop)
	if n := kept.Column(0).Dict.Len(); n != 9 {
		t.Errorf("after a DELETE leaving 10 rows: %d strings, want 9", n)
	}
	if got := column0(kept); got != want[:len(got)] || kept.NumRows() != 10 {
		t.Errorf("kept rows: %s", got)
	}
	if lo, hi, ok := kept.IntRange(0); lo != 0 || hi != 8 || !ok {
		t.Errorf("kept range %d..%d %v, want 0..8", lo, hi, ok)
	}
	if got := column0(tab); got != want || tab.Column(0).Dict.Len() != 900 {
		t.Error("the table read before the DELETE changed")
	}

	tab.TruncateTo(500) // 900 strings: within 2 × 500 + 64
	if n := tab.Column(0).Dict.Len(); n != 900 {
		t.Errorf("after TruncateTo(500): %d strings, want 900 kept", n)
	}
	tab.TruncateTo(20)
	if n := tab.Column(0).Dict.Len(); n != 18 || column0(tab) != want[:len(column0(tab))] {
		t.Errorf("after TruncateTo(20): %d strings, want 18; %s", n, column0(tab))
	}

	for i := 0; i < 10; i++ {
		u := tab.BeginUpdate()
		for r := 0; r < 20; r++ {
			if err := u.Set(r, 0, value.NewString(fmt.Sprint("u", i, "-", r))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := tab.Column(0).Dict.Len(); n > 2*20+64+20 {
		t.Errorf("after ten UPDATEs of 20 rows: %d strings", n)
	}
	epoch := tab.Epoch()
	tab.BeginUpdate()
	if n := tab.Column(0).Dict.Len(); n != 20 || tab.Epoch() != epoch {
		t.Errorf("at the next UPDATE: %d strings, want 20, epoch moved %v", n, tab.Epoch() != epoch)
	}
	if got := tab.Get(7, 0).Str(); got != "u9-7" {
		t.Errorf("row 7: %q", got)
	}
}
