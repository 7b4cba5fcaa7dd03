package storage

import (
	"testing"

	"repro/internal/value"
)

// Epochs are the invalidation backbone of the planner's summary cache: any
// row mutation must advance them, and the global clock must make staging
// swaps and drop-recreate cycles distinguishable from the original table.

func TestEpochAdvancesOnEveryMutation(t *testing.T) {
	tab, err := NewTable("t", Schema{{Name: "a", Type: TypeInt}, {Name: "b", Type: TypeInt}})
	if err != nil {
		t.Fatal(err)
	}
	e0 := tab.Epoch()
	if e0 == 0 {
		t.Fatal("fresh table has zero epoch")
	}

	if _, err := tab.AppendRow([]value.Value{value.NewInt(1), value.NewInt(2)}); err != nil {
		t.Fatal(err)
	}
	e1 := tab.Epoch()
	if e1 <= e0 {
		t.Fatalf("AppendRow did not advance epoch: %d -> %d", e0, e1)
	}

	if err := tab.set(0, 1, value.NewInt(9)); err != nil {
		t.Fatal(err)
	}
	e2 := tab.Epoch()
	if e2 <= e1 {
		t.Fatalf("Set did not advance epoch: %d -> %d", e1, e2)
	}

	tab.TruncateTo(0)
	e3 := tab.Epoch()
	if e3 <= e2 {
		t.Fatalf("TruncateTo did not advance epoch: %d -> %d", e2, e3)
	}

	tab.Truncate()
	if tab.Epoch() <= e3 {
		t.Fatalf("Truncate did not advance epoch: %d -> %d", e3, tab.Epoch())
	}
}

func TestEpochStableAcrossReads(t *testing.T) {
	tab, err := NewTable("t", Schema{{Name: "a", Type: TypeInt}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.AppendRow([]value.Value{value.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	e := tab.Epoch()
	_ = tab.Get(0, 0)
	_ = tab.Row(0, nil)
	if _, err := tab.CreateIndex("ix", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if tab.Epoch() != e {
		t.Fatalf("reads or index builds changed the epoch: %d -> %d", e, tab.Epoch())
	}
	// TruncateTo at or beyond the current size is a documented no-op.
	tab.TruncateTo(5)
	if tab.Epoch() != e {
		t.Fatalf("no-op TruncateTo changed the epoch: %d -> %d", e, tab.Epoch())
	}
}

// A staging swap (Without + Catalog.Put) must never alias the replaced
// table's epoch: the staging table draws a fresh, strictly newer tick from the
// global clock, so a cache entry stamped against the old table goes stale.
func TestEpochGloballyMonotonicAcrossSwap(t *testing.T) {
	cat := NewCatalog()
	tab, err := cat.Create("t", Schema{{Name: "a", Type: TypeInt}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.AppendRow([]value.Value{value.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	old := tab.Epoch()

	stage := tab.Without([]int32{0})
	cat.Put(stage)
	cur, err := cat.Get("t")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Epoch() <= old {
		t.Fatalf("staging swap reused an old epoch: %d <= %d", cur.Epoch(), old)
	}

	// Drop and recreate under the same name: again strictly newer.
	if err := cat.Drop("t"); err != nil {
		t.Fatal(err)
	}
	re, err := cat.Create("t", Schema{{Name: "a", Type: TypeInt}})
	if err != nil {
		t.Fatal(err)
	}
	if re.Epoch() <= cur.Epoch() {
		t.Fatalf("recreate reused an old epoch: %d <= %d", re.Epoch(), cur.Epoch())
	}
}
