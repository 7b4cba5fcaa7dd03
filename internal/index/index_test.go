package index

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func key(parts ...any) []value.Value {
	out := make([]value.Value, len(parts))
	for i, p := range parts {
		switch v := p.(type) {
		case int:
			out[i] = value.NewInt(int64(v))
		case string:
			out[i] = value.NewString(v)
		case nil:
			out[i] = value.Null
		}
	}
	return out
}

func TestAddLookup(t *testing.T) {
	ix := New("i", []string{"state", "city"})
	ix.Add(key("CA", "SF"), 0)
	ix.Add(key("CA", "SF"), 1)
	ix.Add(key("TX", "Dallas"), 2)
	if got := ix.Lookup(key("CA", "SF")); len(got) != 2 {
		t.Errorf("CA/SF rows = %v", got)
	}
	if got := ix.Lookup(key("CA", "LA")); len(got) != 0 {
		t.Errorf("CA/LA rows = %v", got)
	}
	if ix.Len() != 3 || len(ix.buckets) != 2 {
		t.Errorf("Len=%d Buckets=%d", ix.Len(), len(ix.buckets))
	}
	if ix.Name() != "i" {
		t.Error("Name wrong")
	}
	if cols := ix.Columns(); len(cols) != 2 || cols[0] != "state" {
		t.Errorf("Columns = %v", cols)
	}
	if ix.String() == "" {
		t.Error("String empty")
	}
}

func TestNullKeysIndexed(t *testing.T) {
	ix := New("i", []string{"d"})
	ix.Add(key(nil), 0)
	ix.Add(key(nil), 1)
	if got := ix.Lookup(key(nil)); len(got) != 2 {
		t.Errorf("NULL bucket = %v", got)
	}
}

func TestRemove(t *testing.T) {
	ix := New("i", []string{"d"})
	ix.Add(key(1), 10)
	ix.Add(key(1), 11)
	if !ix.Remove(key(1), 10) {
		t.Error("Remove existing entry must succeed")
	}
	if ix.Remove(key(1), 10) {
		t.Error("Remove twice must fail")
	}
	if got := ix.Lookup(key(1)); len(got) != 1 || got[0] != 11 {
		t.Errorf("after remove: %v", got)
	}
	if !ix.Remove(key(1), 11) {
		t.Error("Remove last entry must succeed")
	}
	if len(ix.buckets) != 0 || ix.Len() != 0 {
		t.Errorf("index not empty: buckets=%d len=%d", len(ix.buckets), ix.Len())
	}
	if ix.Remove(key(2), 5) {
		t.Error("Remove from missing bucket must fail")
	}
}

func TestLookupKeyMatchesLookup(t *testing.T) {
	ix := New("i", []string{"a", "b"})
	k := key("x", 3)
	ix.Add(k, 7)
	enc := value.EncodeKey(k...)
	if got := ix.LookupKey(enc); len(got) != 1 || got[0] != 7 {
		t.Errorf("LookupKey = %v", got)
	}
}

func TestAddRemoveBalanceProperty(t *testing.T) {
	// After adding entries and removing all of them, the index is empty.
	f := func(keys []int8) bool {
		ix := New("p", []string{"k"})
		for i, k := range keys {
			ix.Add(key(int(k)), i)
		}
		for i, k := range keys {
			if !ix.Remove(key(int(k)), i) {
				return false
			}
		}
		return ix.Len() == 0 && len(ix.buckets) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// raceEnabled is set by race_test.go under -race, where instrumentation
// changes allocation counts.
var raceEnabled bool

// TestIndexBuildAllocBudget: building an index allocates per distinct key —
// the key's string and its row list, which doubles as it grows — and nothing
// per row: the encoding goes through a buffer the index owns. 40 000 rows over
// 84 keys (the subkey index of the benchmark's largest Vpct plan) made
// 80 000+ allocations when every Add built a key string.
func TestIndexBuildAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const rows, keys = 40_000, 84
	tuples := make([][]value.Value, keys)
	for k := range tuples {
		tuples[k] = key(k%7, k/7)
	}
	allocs := testing.AllocsPerRun(5, func() {
		ix := New("pct_ixk", []string{"dweek", "monthNo"})
		for r := 0; r < rows; r++ {
			ix.Add(tuples[r%keys], r)
		}
		if ix.Len() != rows || len(ix.buckets) != keys {
			t.Fatal(ix)
		}
	})
	// Per key: one string, one list and ~log2(rows/keys) regrowths of it.
	if budget := float64(keys * 16); allocs > budget {
		t.Errorf("indexing %d rows over %d keys made %.0f allocations, budget %.0f", rows, keys, allocs, budget)
	}
	t.Logf("%.0f allocations", allocs)
}

// A key's row list stays ascending whatever order entries come and go in:
// what an in-place update and its undo rely on to leave the index as a
// rebuild in row order would.
func TestRowListStaysAscending(t *testing.T) {
	ix := New("i", []string{"d"})
	for _, rid := range []int{4, 9, 2, 7, 2} {
		ix.Add(key(1), rid)
	}
	if got := ix.Lookup(key(1)); !slices.Equal(got, []int{2, 2, 4, 7, 9}) {
		t.Fatalf("after out-of-order adds: %v", got)
	}
	if !ix.Remove(key(1), 4) || ix.Remove(key(1), 5) {
		t.Error("Remove must find 4 and miss 5")
	}
	ix.Add(key(1), 3)
	if got := ix.Lookup(key(1)); !slices.Equal(got, []int{2, 2, 3, 7, 9}) || ix.Len() != 5 {
		t.Errorf("after remove and re-add: %v, len %d", got, ix.Len())
	}
}
