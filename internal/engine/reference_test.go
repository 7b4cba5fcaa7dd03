package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// Reference-implementation equivalence: the engine's hash-based operators
// must agree with naive sort-based implementations on randomized inputs
// (DESIGN.md invariant 7).

// randTable builds a random table r(g1, g2, a) with NULLs sprinkled in.
func randTable(t *testing.T, e *Engine, rng *rand.Rand, n int) {
	t.Helper()
	mustExec(t, e, "CREATE TABLE r (g1 INTEGER, g2 VARCHAR, a INTEGER)")
	tab, _ := e.Catalog().Get("r")
	strs := []string{"x", "y", "z", "w"}
	for i := 0; i < n; i++ {
		row := []value.Value{
			value.NewInt(int64(rng.Intn(5))),
			value.NewString(strs[rng.Intn(len(strs))]),
			value.NewInt(int64(rng.Intn(100) - 20)),
		}
		if rng.Intn(12) == 0 {
			row[2] = value.Null
		}
		if rng.Intn(20) == 0 {
			row[0] = value.Null
		}
		if _, err := tab.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
}

// refGroupBy computes SELECT g1, g2, sum(a), count(*), min(a), max(a),
// avg(a) GROUP BY g1, g2 with a sort-based reference.
func refGroupBy(t *testing.T, e *Engine) map[string][]float64 {
	t.Helper()
	tab, _ := e.Catalog().Get("r")
	type group struct {
		sum        float64
		sumSeen    bool
		count      int64
		minV, maxV value.Value
		avgN       int64
	}
	groups := map[string]*group{}
	for r := 0; r < tab.NumRows(); r++ {
		key := string(value.EncodeKey(tab.Get(r, 0), tab.Get(r, 1)))
		g := groups[key]
		if g == nil {
			g = &group{}
			groups[key] = g
		}
		g.count++
		a := tab.Get(r, 2)
		if !a.IsNull() {
			g.sum += a.Float()
			g.sumSeen = true
			g.avgN++
			if g.minV.IsNull() || value.Compare(a, g.minV) < 0 {
				g.minV = a
			}
			if g.maxV.IsNull() || value.Compare(a, g.maxV) > 0 {
				g.maxV = a
			}
		}
	}
	out := map[string][]float64{}
	for k, g := range groups {
		row := make([]float64, 5)
		if g.sumSeen {
			row[0] = g.sum
		} else {
			row[0] = math.NaN()
		}
		row[1] = float64(g.count)
		if g.minV.IsNull() {
			row[2], row[3] = math.NaN(), math.NaN()
		} else {
			row[2], row[3] = g.minV.Float(), g.maxV.Float()
		}
		if g.avgN > 0 {
			row[4] = g.sum / float64(g.avgN)
		} else {
			row[4] = math.NaN()
		}
		out[k] = row
	}
	return out
}

func TestHashAggregateMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		e := New(storage.NewCatalog())
		randTable(t, e, rng, 200+rng.Intn(600))
		want := refGroupBy(t, e)
		res := mustExec(t, e, "SELECT g1, g2, sum(a), count(*), min(a), max(a), avg(a) FROM r GROUP BY g1, g2")
		if len(res.Rows) != len(want) {
			t.Fatalf("trial %d: %d groups, want %d", trial, len(res.Rows), len(want))
		}
		for _, row := range res.Rows {
			key := string(value.EncodeKey(row[0], row[1]))
			ref, ok := want[key]
			if !ok {
				t.Fatalf("trial %d: unexpected group %v", trial, row[:2])
			}
			check := func(idx int, got value.Value, refVal float64) {
				if math.IsNaN(refVal) {
					if !got.IsNull() {
						t.Errorf("trial %d group %v col %d = %v, want NULL", trial, row[:2], idx, got)
					}
					return
				}
				f, _ := got.AsFloat()
				if math.Abs(f-refVal) > 1e-9 {
					t.Errorf("trial %d group %v col %d = %v, want %v", trial, row[:2], idx, got, refVal)
				}
			}
			for i := 0; i < 5; i++ {
				check(i, row[2+i], ref[i])
			}
		}
	}
}

func TestHashJoinMatchesSortMergeReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 5; trial++ {
		e := New(storage.NewCatalog())
		mustExec(t, e, "CREATE TABLE l (k INTEGER, v INTEGER)")
		mustExec(t, e, "CREATE TABLE rr (k INTEGER, w INTEGER)")
		lt, _ := e.Catalog().Get("l")
		rt, _ := e.Catalog().Get("rr")
		nl, nr := 50+rng.Intn(100), 30+rng.Intn(80)
		for i := 0; i < nl; i++ {
			k := value.NewInt(int64(rng.Intn(12)))
			if rng.Intn(15) == 0 {
				k = value.Null
			}
			lt.AppendRow([]value.Value{k, value.NewInt(int64(i))})
		}
		for i := 0; i < nr; i++ {
			k := value.NewInt(int64(rng.Intn(12)))
			if rng.Intn(15) == 0 {
				k = value.Null
			}
			rt.AppendRow([]value.Value{k, value.NewInt(int64(i))})
		}

		// Reference: sort both sides, merge (inner and left-outer).
		type pair struct{ v, w int64 }
		var refInner []pair
		refOuter := map[int64][]int64{} // l.v → matched w list (empty = null row)
		for a := 0; a < lt.NumRows(); a++ {
			lk := lt.Get(a, 0)
			lv := lt.Get(a, 1).Int()
			refOuter[lv] = nil
			if lk.IsNull() {
				continue
			}
			for b := 0; b < rt.NumRows(); b++ {
				rk := rt.Get(b, 0)
				if rk.IsNull() || value.Compare(lk, rk) != 0 {
					continue
				}
				w := rt.Get(b, 1).Int()
				refInner = append(refInner, pair{lv, w})
				refOuter[lv] = append(refOuter[lv], w)
			}
		}
		sort.Slice(refInner, func(i, j int) bool {
			if refInner[i].v != refInner[j].v {
				return refInner[i].v < refInner[j].v
			}
			return refInner[i].w < refInner[j].w
		})

		inner := mustExec(t, e, "SELECT l.v, rr.w FROM l, rr WHERE l.k = rr.k ORDER BY 1, 2")
		if len(inner.Rows) != len(refInner) {
			t.Fatalf("trial %d inner rows = %d, want %d", trial, len(inner.Rows), len(refInner))
		}
		for i, row := range inner.Rows {
			if row[0].Int() != refInner[i].v || row[1].Int() != refInner[i].w {
				t.Fatalf("trial %d inner row %d = %v, want %+v", trial, i, row, refInner[i])
			}
		}

		outer := mustExec(t, e, "SELECT l.v, rr.w FROM l LEFT OUTER JOIN rr ON l.k = rr.k ORDER BY 1, 2")
		wantRows := 0
		for _, ws := range refOuter {
			if len(ws) == 0 {
				wantRows++
			} else {
				wantRows += len(ws)
			}
		}
		if len(outer.Rows) != wantRows {
			t.Fatalf("trial %d outer rows = %d, want %d", trial, len(outer.Rows), wantRows)
		}
		for _, row := range outer.Rows {
			ws := refOuter[row[0].Int()]
			if len(ws) == 0 {
				if !row[1].IsNull() {
					t.Fatalf("trial %d: %v should be null-extended", trial, row)
				}
				continue
			}
			found := false
			for _, w := range ws {
				if !row[1].IsNull() && row[1].Int() == w {
					found = true
				}
			}
			if !found {
				t.Fatalf("trial %d: outer row %v not in reference %v", trial, row, ws)
			}
		}
	}
}

func TestDistinctMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := New(storage.NewCatalog())
	randTable(t, e, rng, 500)
	tab, _ := e.Catalog().Get("r")
	ref := map[string]bool{}
	for r := 0; r < tab.NumRows(); r++ {
		ref[string(value.EncodeKey(tab.Get(r, 0), tab.Get(r, 1)))] = true
	}
	res := mustExec(t, e, "SELECT DISTINCT g1, g2 FROM r")
	if len(res.Rows) != len(ref) {
		t.Fatalf("distinct rows = %d, want %d", len(res.Rows), len(ref))
	}
	seen := map[string]bool{}
	for _, row := range res.Rows {
		k := string(value.EncodeKey(row[0], row[1]))
		if !ref[k] || seen[k] {
			t.Fatalf("bad distinct row %v", row)
		}
		seen[k] = true
	}
}

func TestOrderByMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e := New(storage.NewCatalog())
	randTable(t, e, rng, 300)
	res := mustExec(t, e, "SELECT g1, a FROM r ORDER BY a DESC, g1")
	for i := 1; i < len(res.Rows); i++ {
		prev, cur := res.Rows[i-1], res.Rows[i]
		c := value.Compare(prev[1], cur[1])
		if c < 0 {
			t.Fatalf("row %d out of order: %v before %v", i, prev, cur)
		}
		if c == 0 && value.Compare(prev[0], cur[0]) > 0 {
			t.Fatalf("row %d tiebreak out of order: %v before %v", i, prev, cur)
		}
	}
}

func TestIndexedAndUnindexedJoinsAgreeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 3; trial++ {
		seed := rng.Int63()
		run := func(withIndex bool) []string {
			e := New(storage.NewCatalog())
			r2 := rand.New(rand.NewSource(seed))
			randTable(t, e, r2, 300)
			mustExec(t, e, "CREATE TABLE d (g1 INTEGER, label VARCHAR)")
			dt, _ := e.Catalog().Get("d")
			for i := 0; i < 5; i++ {
				dt.AppendRow([]value.Value{value.NewInt(int64(i)), value.NewString(fmt.Sprintf("L%d", i))})
			}
			if withIndex {
				mustExec(t, e, "CREATE INDEX dx ON d (g1)")
			}
			res := mustExec(t, e, "SELECT r.a, d.label FROM r, d WHERE r.g1 = d.g1 ORDER BY 1, 2")
			var out []string
			for _, row := range res.Rows {
				out = append(out, row[0].String()+"|"+row[1].String())
			}
			return out
		}
		a, b := run(false), run(true)
		if strings.Join(a, ";") != strings.Join(b, ";") {
			t.Fatalf("trial %d: indexed and unindexed joins differ", trial)
		}
	}
}
