package storage

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/value"
)

// rangeOf renders column col's IntRange as "lo..hi", or "none".
func rangeOf(tab *Table, col int) string {
	lo, hi, ok := tab.IntRange(col)
	if !ok {
		return "none"
	}
	return fmt.Sprintf("%d..%d", lo, hi)
}

// TestIntRangeFollowsEveryWrite: IntRange sees only non-NULL values — none in
// an empty table or an all-NULL column, none from the NULL cells of a bitmap
// word boundary — and answers for the table as it stands after every kind of
// write, though it is cached between them and only extended across appends:
// an append that moves both ends or holds only NULLs, an INSERT rolled back, an
// UPDATE rolled back or committed between appends. A VARCHAR column's range is
// its dictionary's codes, which only grow: "x" is code 0 from its first append.
func TestIntRangeFollowsEveryWrite(t *testing.T) {
	tab, err := NewTable("t", Schema{{Name: "k", Type: TypeInt}, {Name: "n", Type: TypeInt}, {Name: "s", Type: TypeString}})
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, want ...string) {
		t.Helper()
		for col, w := range want {
			if got := rangeOf(tab, col); got != w {
				t.Errorf("%s: column %d range %s, want %s", step, col, got, w)
			}
		}
	}
	check("empty", "none", "none", "none")

	// Rows 0..99: k = -50..49 except NULL at rows 63..65, n always NULL.
	for r := 0; r < 100; r++ {
		k := value.NewInt(int64(r - 50))
		if r >= 63 && r <= 65 {
			k = value.Null
		}
		if _, err := tab.AppendRow([]value.Value{k, value.Null, value.NewString("x")}); err != nil {
			t.Fatal(err)
		}
	}
	check("appended", "-50..49", "none", "0..0")
	// A NULL cell's slot holds 0, which must not count: only NULLs at the ends.
	check("again, cached", "-50..49", "none", "0..0")

	if _, err := tab.AppendRow([]value.Value{value.NewInt(1000), value.NewInt(-7), value.Null}); err != nil {
		t.Fatal(err)
	}
	check("AppendRow", "-50..1000", "-7..-7", "0..0")

	k := &Vector{Type: TypeInt, Ints: []int64{-9000, 5}}
	n := &Vector{Type: TypeInt, Ints: []int64{0, 0}}
	n.SetNull(0)
	n.SetNull(1)
	if err := tab.AppendVectors([]*Vector{k, n, nil}, 2, nil); err != nil {
		t.Fatal(err)
	}
	check("AppendVectors", "-9000..1000", "-7..-7", "0..0")

	u := tab.BeginUpdate()
	if err := u.Set(0, 0, value.NewInt(1<<40)); err != nil {
		t.Fatal(err)
	}
	if err := u.Set(100, 1, value.Null); err != nil {
		t.Fatal(err)
	}
	check("Undo.Set", "-9000..1099511627776", "none", "0..0")
	u.Rollback()
	check("Rollback", "-9000..1000", "-7..-7", "0..0")

	tab.TruncateTo(100)
	check("TruncateTo", "-50..49", "none", "0..0")

	kept := tab.Without([]int32{0, 1, 99})
	if got := rangeOf(kept, 0); got != "-48..48" {
		t.Errorf("Without: range %s, want -48..48", got)
	}
	check("the table Without read", "-50..49", "none", "0..0")

	// Appends after a cached read extend the cached range by the new rows.
	appendRow := func(k, n value.Value) {
		t.Helper()
		if _, err := tab.AppendRow([]value.Value{k, n, value.NewString("x")}); err != nil {
			t.Fatal(err)
		}
	}
	k = &Vector{Type: TypeInt, Ints: []int64{-70, 0, 80}}
	if err := tab.AppendVectors([]*Vector{k, nil, nil}, 3, nil); err != nil {
		t.Fatal(err)
	}
	check("an append past both ends", "-70..80", "none", "0..0")
	if err := tab.AppendVectors([]*Vector{nil, nil, nil}, 2, nil); err != nil {
		t.Fatal(err)
	}
	check("an all-NULL append", "-70..80", "none", "0..0")
	appendRow(value.Null, value.NewInt(3))
	check("a NULL-free append to an all-NULL column", "-70..80", "3..3", "0..0")

	// An INSERT rolled back past a new extreme takes the extreme with it.
	appendRow(value.NewInt(5000), value.NewInt(-4000))
	check("the INSERT", "-70..5000", "-4000..3", "0..0")
	tab.TruncateTo(106)
	check("the INSERT rolled back", "-70..80", "3..3", "0..0")

	// An UPDATE rolled back after an append: the append's range stands.
	appendRow(value.NewInt(90), value.Null)
	check("an append before an UPDATE", "-70..90", "3..3", "0..0")
	u = tab.BeginUpdate()
	if err := u.Set(106, 0, value.NewInt(-1)); err != nil {
		t.Fatal(err)
	}
	check("the UPDATE", "-70..80", "3..3", "0..0")
	u.Rollback()
	check("the UPDATE rolled back", "-70..90", "3..3", "0..0")

	// An UPDATE committed after appends narrows the range: no append extends
	// a range the rewrite made stale.
	appendRow(value.NewInt(-100), value.Null)
	check("another append", "-100..90", "3..3", "0..0")
	u = tab.BeginUpdate()
	for _, row := range []int{106, 107} {
		if err := u.Set(row, 0, value.NewInt(0)); err != nil {
			t.Fatal(err)
		}
	}
	check("the UPDATE of both ends", "-70..80", "3..3", "0..0")
	appendRow(value.NewInt(1), value.Null)
	check("an append after the UPDATE", "-70..80", "3..3", "0..0")
}

// TestIntRangeConcurrentReaders: readers of one table may ask at once, first
// fill and cached hits alike. Run it under -race.
func TestIntRangeConcurrentReaders(t *testing.T) {
	tab, err := NewTable("t", Schema{{Name: "a", Type: TypeInt}, {Name: "b", Type: TypeInt}})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5000; r++ {
		if _, err := tab.AppendRow([]value.Value{value.NewInt(int64(r)), value.NewInt(int64(-r))}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(col int) {
			defer wg.Done()
			want := [2]int64{0, 4999}
			if col == 1 {
				want = [2]int64{-4999, 0}
			}
			for i := 0; i < 50; i++ {
				lo, hi, ok := tab.IntRange(col)
				if !ok || lo != want[0] || hi != want[1] {
					t.Errorf("column %d: IntRange = %d, %d, %v", col, lo, hi, ok)
					return
				}
			}
		}(g % 2)
	}
	wg.Wait()
}
