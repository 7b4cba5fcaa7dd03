package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// TestSortVarcharByRank: a VARCHAR sort key compares the ranks of the strings
// its positions hold, and gives the order the strings themselves give — NULL
// first, DESC reversed, ties by position — on both routes: packed, and by
// comparator over the ranks. The dictionary's first-appearance order is far
// from the lexical one, and holds strings no sorted row has, which the ranks
// leave out.
func TestSortVarcharByRank(t *testing.T) {
	tab, err := storage.NewTable("s", storage.Schema{{Name: "v", Type: storage.TypeString}, {Name: "w", Type: storage.TypeString}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	words := []string{"zeta", "", "alpha", "Alpha", "mu", "a", "zz", "alp", "é", "b\x00"}
	cell := func() value.Value {
		if rng.Intn(7) == 0 {
			return value.Null
		}
		return value.NewString(words[rng.Intn(len(words))])
	}
	for r := 0; r < 1200; r++ {
		v := cell()
		if r < 600 && r%3 == 0 {
			v = value.NewString(fmt.Sprint("only-", 1200-r)) // grows the dictionary past what a small sort reads
		}
		if _, err := tab.AppendRow([]value.Value{v, cell()}); err != nil {
			t.Fatal(err)
		}
	}
	// want orders ids by the boxed cells, NULL first, ties by position.
	want := func(ids []int32, desc []bool) []int32 {
		out := slices.Clone(ids)
		slices.SortStableFunc(out, func(a, b int32) int {
			for c, d := range desc {
				x, y := tab.Get(int(a), c), tab.Get(int(b), c)
				if n := value.Compare(x, y); n != 0 {
					if d {
						return -n
					}
					return n
				}
			}
			return 0
		})
		return out
	}
	for _, n := range []int{1200, 600, 200, 100, 40} {
		ids := make([]int32, 0, n)
		for r := 1200 - n; r < 1200; r++ { // the rows past the unique strings
			ids = append(ids, int32(r))
		}
		for _, desc := range [][]bool{{false}, {true}, {false, true}, {true, false}} {
			keys := make([]sortKey, len(desc))
			for c, d := range desc {
				keys[c] = columnKey(tab.Column(c), d)
			}
			got := slices.Clone(ids)
			sortPerm(got, keys)
			if w := want(ids, desc); !slices.Equal(got, w) {
				t.Errorf("%d rows, desc %v: sorted %v, want %v", n, desc, got[:min(len(got), 20)], w[:min(len(w), 20)])
			}
			met := map[string]bool{}
			for _, r := range ids {
				if v := tab.Get(int(r), 0); !v.IsNull() {
					met[v.Str()] = true
				}
			}
			if keys[0].ranks != len(met) {
				t.Errorf("%d rows: %d ranks for %d distinct strings", n, keys[0].ranks, len(met))
			}
		}
	}
}

// TestDictConcurrentReaders: a table filled from another's batches shares
// their dictionary without owning it, so a writer appending new strings to
// the owner grows the dictionary a fold — and a filter, a sort, a collector —
// of the other is reading. Run it under -race. A string the sharing table
// writes goes to a copy, which leaves the owner's dictionary as it was.
func TestDictConcurrentReaders(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE r (s VARCHAR, a INTEGER); CREATE TABLE w (s VARCHAR, a INTEGER)")
	r, _ := e.Catalog().Get("r")
	for i := 0; i < 5000; i++ {
		s := value.NewString(fmt.Sprint("s", i%50))
		if i%97 == 0 {
			s = value.Null
		}
		if _, err := r.AppendRow([]value.Value{s, value.NewInt(int64(i % 13))}); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, e, "INSERT INTO w SELECT s, a FROM r WHERE a < 4")
	w, _ := e.Catalog().Get("w")
	if w.Column(0).Dict != r.Column(0).Dict {
		t.Fatal("the filled table does not share its source's dictionary")
	}
	queries := []string{
		"SELECT s, count(*), sum(a) FROM w GROUP BY s",
		"SELECT s, a, count(*) FROM w WHERE s = 's7' GROUP BY s, a ORDER BY a",
		"SELECT DISTINCT s FROM w ORDER BY s DESC",
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = renderRows(mustExec(t, e, q).Rows)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 300; i++ {
			if _, err := e.ExecSQL(fmt.Sprintf("INSERT INTO r VALUES ('new-%d', %d), ('s3', 0), (NULL, 1)", i, i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-done:
					if k > 0 {
						return
					}
				default:
				}
				q := k % len(queries)
				res, err := e.ExecSQLCtxP(context.Background(), queries[q], 1+g%2)
				if err != nil {
					t.Error(err)
					return
				}
				if got := renderRows(res.Rows); got != want[q] {
					t.Errorf("%s under a writer:\n%s\nwant\n%s", queries[q], got, want[q])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	dict := r.Column(0).Dict
	if w.Column(0).Dict != dict || dict.Len() != 350 || !strings.HasPrefix(dict.Str(50), "new-") {
		t.Fatalf("after the writer: shared %v, %d strings", w.Column(0).Dict == dict, dict.Len())
	}
	mustExec(t, e, "INSERT INTO w VALUES ('only-w', 0)")
	if w.Column(0).Dict == dict || dict.Len() != 350 || w.Column(0).Dict.Len() != 351 {
		t.Errorf("a string written to the sharing table: its dictionary %d strings, the owner's %d", w.Column(0).Dict.Len(), dict.Len())
	}
	if lo, hi, ok := r.IntRange(0); lo != 0 || hi != 349 || !ok {
		t.Errorf("the owner's range %d..%d %v, want 0..349", lo, hi, ok)
	}
	if got := renderRows(mustExec(t, e, "SELECT s, a FROM w WHERE s = 'only-w' OR s = 'new-7'").Rows); got != "only-w|0|\n" {
		t.Errorf("the sharing table's new string: %q", got)
	}
}
