package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/value"
)

// randPlanner builds a planner over a randomly generated fact table
// F(d1, d2, d3, a) with small dimension cardinalities, occasional NULLs in
// both dimensions and measure, and signed measures (so zero totals occur).
func randPlanner(t *testing.T, rng *rand.Rand, n int) *Planner {
	t.Helper()
	cat := storage.NewCatalog()
	tab, err := cat.Create("f", storage.Schema{
		{Name: "d1", Type: storage.TypeInt},
		{Name: "d2", Type: storage.TypeInt},
		{Name: "d3", Type: storage.TypeString},
		{Name: "a", Type: storage.TypeInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	strs := []string{"x", "y", "z"}
	for i := 0; i < n; i++ {
		row := []value.Value{
			value.NewInt(int64(rng.Intn(3))),
			value.NewInt(int64(rng.Intn(4))),
			value.NewString(strs[rng.Intn(3)]),
			value.NewInt(int64(rng.Intn(21) - 5)), // negatives → zero totals happen
		}
		if rng.Intn(20) == 0 {
			row[3] = value.Null
		}
		if rng.Intn(30) == 0 {
			row[rng.Intn(3)] = value.Null
		}
		if _, err := tab.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return NewPlanner(engine.New(cat))
}

// cloneData copies the random table into a fresh planner so strategies
// with side effects (UPDATE rewrites temporaries only, but belt and
// braces) cannot interfere.
func runOn(t *testing.T, src *Planner, sql string, opts Options) *engine.Result {
	t.Helper()
	plan, err := src.PlanSQL(sql, opts)
	if err != nil {
		t.Fatalf("PlanSQL(%s): %v", sql, err)
	}
	res, err := src.ExecuteCtx(context.Background(), plan)
	if err != nil {
		t.Fatalf("Execute(%s):\n%s\n%v", sql, plan.SQL(), err)
	}
	return res
}

func TestPropertyVpctStrategiesAgreeOnRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	queries := []string{
		"SELECT d1, d2, Vpct(a BY d2) FROM f GROUP BY d1, d2",
		"SELECT d1, d2, d3, Vpct(a BY d2, d3) FROM f GROUP BY d1, d2, d3",
		"SELECT d3, Vpct(a) FROM f GROUP BY d3",
		"SELECT d1, d2, Vpct(a BY d2), sum(a), count(*) FROM f GROUP BY d1, d2",
	}
	for trial := 0; trial < 5; trial++ {
		p := randPlanner(t, rng, 300+rng.Intn(500))
		for _, q := range queries {
			var base *engine.Result
			for mask := 0; mask < 8; mask++ {
				opts := Options{Vpct: VpctOptions{
					FjFromF:       mask&1 != 0,
					UseUpdate:     mask&2 != 0,
					SubkeyIndexes: mask&4 != 0,
				}}
				res := runOn(t, p, q, opts)
				if base == nil {
					base = res
					continue
				}
				sameResults(t, fmt.Sprintf("trial %d mask %d %s", trial, mask, q), base, res)
			}
		}
	}
}

func TestPropertyVpctGroupsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		p := randPlanner(t, rng, 400)
		res := runOn(t, p, "SELECT d1, d2, Vpct(a BY d2) FROM f GROUP BY d1, d2", DefaultOptions())
		sums := map[string]float64{}
		hasNull := map[string]bool{}
		for _, r := range res.Rows {
			key := r[0].String()
			if r[2].IsNull() {
				hasNull[key] = true
				continue
			}
			sums[key] += r[2].Float()
		}
		for key, s := range sums {
			if hasNull[key] {
				continue // zero/NULL totals void the invariant for the group
			}
			if math.Abs(s-1) > 1e-9 {
				t.Errorf("trial %d group %s sums to %v", trial, key, s)
			}
		}
	}
}

func TestPropertyHpctStrategiesAgreeOnRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	queries := []string{
		"SELECT d1, Hpct(a BY d2) FROM f GROUP BY d1",
		"SELECT d1, Hpct(a BY d2, d3) FROM f GROUP BY d1",
		"SELECT Hpct(a BY d3) FROM f",
		"SELECT d1, Hpct(a BY d2), sum(a), max(a) FROM f GROUP BY d1",
		"SELECT d1, Hpct(a BY d2), avg(a), count(a), min(a), count(*) FROM f GROUP BY d1",
	}
	for trial := 0; trial < 4; trial++ {
		p := randPlanner(t, rng, 300+rng.Intn(400))
		// A NULL-only group and a +5/-5 group: void totals, all-NULL rows.
		mustExec(t, p.Eng, "INSERT INTO f VALUES (7, 0, 'x', NULL), (7, 1, 'y', NULL), (8, 0, 'x', 5), (8, 1, 'y', -5)")
		for _, q := range queries {
			base := runOn(t, p, q, Options{})
			fv := runOn(t, p, q, Options{Hpct: HpctOptions{FromFV: true}})
			sameResults(t, "hpct direct vs fromFV: "+q, base, fv)
		}
	}
}

func TestPropertyHaggStrategiesAgreeOnRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	queries := []string{
		"SELECT d1, sum(a BY d2) FROM f GROUP BY d1",
		"SELECT d1, count(a BY d2) FROM f GROUP BY d1",
		"SELECT d1, min(a BY d3), max(a BY d3) FROM f GROUP BY d1",
		"SELECT d1, avg(a BY d2) FROM f GROUP BY d1",
		"SELECT d1, sum(a BY d2, d3), count(*) FROM f GROUP BY d1",
		"SELECT sum(a BY d2) FROM f",
	}
	strategies := []Options{
		{Hagg: HaggOptions{Method: HaggCASE}},
		{Hagg: HaggOptions{Method: HaggCASE, FromFV: true}},
		{Hagg: HaggOptions{Method: HaggSPJ}},
		{Hagg: HaggOptions{Method: HaggSPJ, FromFV: true}},
	}
	for trial := 0; trial < 4; trial++ {
		p := randPlanner(t, rng, 250+rng.Intn(400))
		for _, q := range queries {
			var base *engine.Result
			for si, opts := range strategies {
				res := runOn(t, p, q, opts)
				if base == nil {
					base = res
					continue
				}
				sameResults(t, fmt.Sprintf("trial %d strategy %d %s", trial, si, q), base, res)
			}
		}
	}
}

func TestPropertyOLAPMatchesVpctOnRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 5; trial++ {
		p := randPlanner(t, rng, 300)
		q := "SELECT d1, d2, Vpct(a BY d2) FROM f GROUP BY d1, d2"
		base := runOn(t, p, q, DefaultOptions())
		sel, err := parseSelect(q)
		if err != nil {
			t.Fatal(err)
		}
		olap, err := p.OLAPEquivalent(sel)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Eng.ExecSQL(olap)
		if err != nil {
			t.Fatalf("%s: %v", olap, err)
		}
		sameResults(t, "olap vs vpct", base, res)
	}
}

func TestPropertyHpctMatchesVpctNumbers(t *testing.T) {
	// FH[group][combo] must equal FV's (group, combo) percentage; absent
	// combinations read 0 in FH.
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 4; trial++ {
		p := randPlanner(t, rng, 400)
		v := runOn(t, p, "SELECT d1, d2, Vpct(a BY d2) FROM f GROUP BY d1, d2", DefaultOptions())
		h := runOn(t, p, "SELECT d1, Hpct(a BY d2) FROM f GROUP BY d1", DefaultOptions())
		vmap := map[string]value.Value{}
		zeroTotal := map[string]bool{}
		for _, r := range v.Rows {
			vmap[r[0].String()+"|"+r[1].String()] = r[2]
			if r[2].IsNull() {
				zeroTotal[r[0].String()] = true
			}
		}
		for _, r := range h.Rows {
			group := r[0].String()
			if zeroTotal[group] {
				continue // NULL layout differs legitimately for void groups
			}
			for ci, col := range h.Columns[1:] {
				got := r[ci+1]
				want, present := vmap[group+"|"+col]
				switch {
				case !present:
					if got.IsNull() || got.Float() != 0 { // floateq:ok exact expected value
						t.Errorf("trial %d FH[%s][%s] = %v, want 0 for absent combo", trial, group, col, got)
					}
				case want.IsNull():
					// zero-total group; skipped above
				default:
					if got.IsNull() || math.Abs(got.Float()-want.Float()) > 1e-9 {
						t.Errorf("trial %d FH[%s][%s] = %v, want %v", trial, group, col, got, want)
					}
				}
			}
		}
	}
}
