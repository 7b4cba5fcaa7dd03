package difftest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/leakcheck"
	"repro/internal/value"
)

// latticeQueries are the grouping-set shapes the lattice suite sweeps over
// the random fact table f(d1, d2, d3, a): plain distributive aggregates,
// Vpct and Hpct at every node, GROUPING markers, and an explicit set list.
var latticeQueries = []string{
	"SELECT d1, d2, sum(a), count(*), GROUPING(d1, d2) FROM f GROUP BY ROLLUP(d1, d2)",
	"SELECT d1, d2, Vpct(a BY d2), GROUPING(d1, d2) FROM f GROUP BY CUBE(d1, d2)",
	"SELECT d1, d3, Vpct(a BY d3), sum(a) FROM f GROUP BY GROUPING SETS ((d1, d3), (d1), ())",
	"SELECT d1, Hpct(a BY d2), sum(a) FROM f GROUP BY ROLLUP(d1)",
	"SELECT d1, d2, d3, min(a), max(a), GROUPING(d1, d2, d3) FROM f GROUP BY ROLLUP(d1, d2, d3)",
}

// TestDifferentialLatticeParallelism: every lattice query is byte-identical
// at P ∈ {1, 2, 8} on seeded random tables. On divergence the table is
// ddmin-shrunk and dumped as a standalone SQL reproducer.
func TestDifferentialLatticeParallelism(t *testing.T) {
	defer leakcheck.Check(t)()
	rng := rand.New(rand.NewSource(20260808))
	trials := 4
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		rows := RandTableRows(rng, 150+rng.Intn(300))
		p := PlannerFor(t, rows)
		for qi, sql := range latticeQueries {
			err := Compare(p, sql, core.DefaultOptions(), Parallelisms)
			if err == nil {
				continue
			}
			fails := func(cand [][]value.Value) bool {
				return Compare(PlannerFor(t, cand), sql, core.DefaultOptions(), Parallelisms) != nil
			}
			minRows := MinimizeRows(rows, fails)
			t.Fatalf("trial %d query %d: %v\nminimized reproducer (%d of %d rows):\n%s-- failing query: %s",
				trial, qi, err, len(minRows), len(rows), DumpRows("f", RandSchema, minRows), sql)
		}
	}
}

// replayLatticeOps is replayCacheOps with the lattice query set: a cached
// and a cold planner replay the same query/DML interleaving and every
// lattice answer must match byte for byte.
func replayLatticeOps(initial [][]value.Value, ops []cacheOp, parallelism int) error {
	cached, err := cachePlannerFor(cacheSchema, initial)
	if err != nil {
		return err
	}
	cold, err := cachePlannerFor(cacheSchema, initial)
	if err != nil {
		return err
	}
	cached.ShareSummaries(true)
	for i, op := range ops {
		if !op.isQuery() {
			if _, err := cached.Eng.ExecSQL(op.SQL); err != nil {
				return fmt.Errorf("op %d cached %s: %w", i, op.SQL, err)
			}
			if _, err := cold.Eng.ExecSQL(op.SQL); err != nil {
				return fmt.Errorf("op %d cold %s: %w", i, op.SQL, err)
			}
			continue
		}
		sql := latticeQueries[op.Query%len(latticeQueries)]
		got, err := Run(cached, sql, core.DefaultOptions(), parallelism)
		if err != nil {
			return fmt.Errorf("op %d cached: %w", i, err)
		}
		want, err := Run(cold, sql, core.DefaultOptions(), parallelism)
		if err != nil {
			return fmt.Errorf("op %d cold: %w", i, err)
		}
		if diff := Equal(want, got); diff != "" {
			return fmt.Errorf("op %d (P=%d) %s: cached lattice diverges from cold: %s", i, parallelism, sql, diff)
		}
	}
	return nil
}

// TestDifferentialLatticeCachedVsCold interleaves lattice queries with DML
// against a cache-enabled planner and a cold one at P ∈ {1, 8}: the cached
// finest summary must answer every node identically to a cold evaluation
// through inserts (delta merges) and updates/deletes (invalidations). On
// divergence the op sequence and table are ddmin-shrunk into a reproducer.
func TestDifferentialLatticeCachedVsCold(t *testing.T) {
	defer leakcheck.Check(t)()
	rng := rand.New(rand.NewSource(20260808))
	trials := 4
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		rows := cacheTableRows(rng, 100+rng.Intn(150))
		ops := randCacheOps(rng, 16+rng.Intn(16), len(rows))
		for _, par := range cacheParallelisms {
			err := replayLatticeOps(rows, ops, par)
			if err == nil {
				continue
			}
			failsOps := func(cand []cacheOp) bool {
				return replayLatticeOps(rows, cand, par) != nil
			}
			minOps := minimizeCacheOps(ops, failsOps)
			failsRows := func(cand [][]value.Value) bool {
				return replayLatticeOps(cand, minOps, par) != nil
			}
			minRows := MinimizeRows(rows, failsRows)
			t.Fatalf("trial %d P=%d: %v\nminimized reproducer (%d of %d ops, %d of %d rows):\n%s",
				trial, par, err, len(minOps), len(ops), len(minRows), len(rows),
				dumpCacheOps("f", cacheSchema, minRows, minOps))
		}
	}
}

// latticeKey renders a dimension value as a partition-map key; GROUPING
// markers keep a rolled-away NULL distinct from a data NULL, so within one
// marker the rendered value is unambiguous.
func latticeKey(vs ...value.Value) string {
	key := ""
	for _, v := range vs {
		key += "|" + v.String()
	}
	return key
}

// nonNegativeRows flips negative measures positive so the paper's sum-to-1
// invariants are exact.
func nonNegativeRows(rng *rand.Rand, n int) [][]value.Value {
	rows := RandTableRows(rng, n)
	for _, r := range rows {
		if !r[3].IsNull() && r[3].Int() < 0 {
			r[3] = value.NewInt(-r[3].Int())
		}
	}
	return rows
}

// runBoth runs sql on a cold planner and a cache-warmed planner (same rows,
// query run twice so the second ride hits the cache) at the given
// parallelism and checks they agree, returning the result.
func runBoth(t *testing.T, rows [][]value.Value, sql string, par int) *engine.Result {
	t.Helper()
	cold := PlannerFor(t, rows)
	res, err := Run(cold, sql, core.DefaultOptions(), par)
	if err != nil {
		t.Fatal(err)
	}
	warm := PlannerFor(t, rows)
	warm.ShareSummaries(true)
	if _, err := Run(warm, sql, core.DefaultOptions(), par); err != nil {
		t.Fatal(err)
	}
	cachedRes, err := Run(warm, sql, core.DefaultOptions(), par)
	if err != nil {
		t.Fatal(err)
	}
	if diff := Equal(res, cachedRes); diff != "" {
		t.Fatalf("P=%d %s: cached Run diverges from cold: %s", par, sql, diff)
	}
	return res
}

// TestDifferentialLatticeParentFold: in a ROLLUP, every parent node's sum
// and count equal the fold of its children — the (d1) row's aggregates are
// the sums of its (d1, d2) children, and the grand total folds the (d1)
// rows. Checked at P ∈ {1, 8}, cached and cold.
func TestDifferentialLatticeParentFold(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	rows := RandTableRows(rng, 400)
	const sql = "SELECT d1, d2, sum(a), count(*), GROUPING(d1, d2) FROM f GROUP BY ROLLUP(d1, d2)"
	for _, par := range cacheParallelisms {
		res := runBoth(t, rows, sql, par)
		type agg struct {
			sum     int64
			sumNull bool
			cnt     int64
		}
		fold := func(into map[string]*agg, key string, sum, cnt value.Value) {
			a := into[key]
			if a == nil {
				a = &agg{sumNull: true}
				into[key] = a
			}
			if !sum.IsNull() {
				a.sum += sum.Int()
				a.sumNull = false
			}
			a.cnt += cnt.Int()
		}
		childFold := map[string]*agg{} // finest rows folded by d1
		parents := map[string]*agg{}   // the (d1) rows as reported
		var rootFold, root *agg
		for _, row := range res.Rows {
			marker := row[4].Int()
			switch marker {
			case 0:
				fold(childFold, latticeKey(row[0]), row[2], row[3])
			case 1:
				parents[latticeKey(row[0])] = &agg{sum: zeroIfNull(row[2]), sumNull: row[2].IsNull(), cnt: row[3].Int()}
				if rootFold == nil {
					rootFold = &agg{sumNull: true}
				}
				if !row[2].IsNull() {
					rootFold.sum += row[2].Int()
					rootFold.sumNull = false
				}
				rootFold.cnt += row[3].Int()
			case 3:
				root = &agg{sum: zeroIfNull(row[2]), sumNull: row[2].IsNull(), cnt: row[3].Int()}
			default:
				t.Fatalf("P=%d: unexpected GROUPING marker %d in ROLLUP", par, marker)
			}
		}
		if len(parents) != len(childFold) {
			t.Fatalf("P=%d: %d parent rows vs %d child partitions", par, len(parents), len(childFold))
		}
		for key, want := range childFold {
			got := parents[key]
			if got == nil {
				t.Fatalf("P=%d: no parent row for child partition %s", par, key)
			}
			if got.sumNull != want.sumNull || got.sum != want.sum || got.cnt != want.cnt {
				t.Fatalf("P=%d parent %s: got %+v, children fold to %+v", par, key, got, want)
			}
		}
		if root == nil || rootFold == nil {
			t.Fatalf("P=%d: missing grand total or parent rows", par)
		}
		if root.sumNull != rootFold.sumNull || root.sum != rootFold.sum || root.cnt != rootFold.cnt {
			t.Fatalf("P=%d grand total %+v, parents fold to %+v", par, root, rootFold)
		}
	}
}

func zeroIfNull(v value.Value) int64 {
	if v.IsNull() {
		return 0
	}
	return v.Int()
}

// TestDifferentialLatticeVpctNodeSums: with a non-negative measure, Vpct
// sums to 1 within every super-group partition of every CUBE node — the
// finest node partitions by d1, the (d1) node is 100% per row, the (d2)
// node shares the grand total, and the all node is a single 100% row.
// NULL percentages (zero totals) exempt their partition, the paper's
// division-by-zero rule. Checked at P ∈ {1, 8}, cached and cold.
func TestDifferentialLatticeVpctNodeSums(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	rows := nonNegativeRows(rng, 400)
	const sql = "SELECT d1, d2, Vpct(a BY d2), GROUPING(d1, d2) FROM f GROUP BY CUBE(d1, d2)"
	for _, par := range cacheParallelisms {
		res := runBoth(t, rows, sql, par)
		sums := map[string]float64{}
		skip := map[string]bool{}
		for ri, row := range res.Rows {
			marker := row[3].Int()
			// The Vpct super-group at a node S is S minus BY: partition the
			// node's rows by the surviving totals columns.
			var part string
			switch marker {
			case 0: // (d1, d2): totals over d1
				part = "n0" + latticeKey(row[0])
			case 1: // (d1): BY fully rolled away, totals = (d1): one row each
				part = fmt.Sprintf("n1|%d", ri)
			case 2: // (d2): totals over the grand total
				part = "n2"
			case 3: // (): single grand-total row
				part = fmt.Sprintf("n3|%d", ri)
			}
			v := row[2]
			if v.IsNull() {
				skip[part] = true
				continue
			}
			f, _ := v.AsFloat()
			if f < -1e-9 || f > 1+1e-9 {
				t.Fatalf("P=%d row %d (marker %d): Vpct %v outside [0,1]", par, ri, marker, f)
			}
			sums[part] += f
		}
		for part, s := range sums {
			if skip[part] {
				continue
			}
			if math.Abs(s-1) > 1e-9 {
				t.Fatalf("P=%d partition %s: Vpct sums to %v, want 1", par, part, s)
			}
		}
	}
}

// TestDifferentialLatticeHpctRowTotals: under ROLLUP, every Hpct row's
// percentages sum to 1 or the whole row NULL-propagates — and the
// grand-total row must equal the Vpct shares of the same BY dimension over
// the plain query (the node's vertical base). Checked at P ∈ {1, 8},
// cached and cold.
func TestDifferentialLatticeHpctRowTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	rows := nonNegativeRows(rng, 400)
	const sql = "SELECT d1, Hpct(a BY d2) FROM f GROUP BY ROLLUP(d1)"
	for _, par := range cacheParallelisms {
		res := runBoth(t, rows, sql, par)
		var totalRow []value.Value
		seenTotal := false
		for ri, row := range res.Rows {
			sum := 0.0
			nulls := 0
			for _, v := range row[1:] {
				if v.IsNull() {
					nulls++
					continue
				}
				f, _ := v.AsFloat()
				sum += f
			}
			switch {
			case nulls == len(row)-1:
				// whole row NULL-propagated
			case nulls > 0:
				t.Fatalf("P=%d row %d: mixed NULL and non-NULL percentages: %v", par, ri, row)
			case math.Abs(sum-1) > 1e-9:
				t.Fatalf("P=%d row %d: percentages sum to %v, want 1", par, ri, sum)
			}
			if row[0].IsNull() {
				// ROLLUP(d1) with a data-NULL d1 group also lands here; the
				// last NULL-keyed row is the grand total (node-major order).
				totalRow = row
				seenTotal = true
			}
		}
		if !seenTotal {
			t.Fatalf("P=%d: no grand-total row", par)
		}

		// The grand-total Hpct row is the (d2) node transposed: its cells
		// must equal each d2 group's Vpct share of the grand total.
		p := PlannerFor(t, rows)
		vres, err := Run(p, "SELECT d2, Vpct(a) FROM f GROUP BY d2", core.DefaultOptions(), par)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]float64{}
		wantNull := map[string]bool{}
		for _, row := range vres.Rows {
			if row[1].IsNull() {
				wantNull[row[0].String()] = true
				continue
			}
			f, _ := row[1].AsFloat()
			want[row[0].String()] = f
		}
		for ci, col := range res.Columns[1:] {
			cell := totalRow[ci+1]
			if cell.IsNull() {
				if !wantNull[col] {
					t.Fatalf("P=%d: grand-total cell %q is NULL but Vpct base is %v", par, col, want[col])
				}
				continue
			}
			wf, ok := want[col]
			if !ok {
				t.Fatalf("P=%d: grand-total column %q has no Vpct base row", par, col)
			}
			f, _ := cell.AsFloat()
			if math.Abs(f-wf) > 1e-9 {
				t.Fatalf("P=%d: grand-total cell %q = %v, Vpct base = %v", par, col, f, wf)
			}
		}
	}
}
