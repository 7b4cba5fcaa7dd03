package difftest

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/storage"
	"repro/internal/value"
)

// cacheParallelisms is the cache suite's sweep: the sequential reference
// and two partition counts that force the parallel fold onto every build,
// merge and rebuild the cache performs.
var cacheParallelisms = []int{1, 2, 8}

// cacheSchema is RandSchema plus what the cache suite's UPDATEs need: a unique
// id to address one row, and r, a REAL twin of the measure a.
var cacheSchema = append(append(storage.Schema{}, RandSchema...),
	storage.ColumnDef{Name: "id", Type: storage.TypeInt}, storage.ColumnDef{Name: "r", Type: storage.TypeFloat})

// cacheTableRows is RandTableRows under cacheSchema: row i has id i.
func cacheTableRows(rng *rand.Rand, n int) [][]value.Value {
	rows := RandTableRows(rng, n)
	for i, row := range rows {
		r := value.Null
		if !row[3].IsNull() {
			r = value.NewFloat(float64(row[3].Int()) / 10)
		}
		rows[i] = append(row, value.NewInt(int64(i)), r)
	}
	return rows
}

// TestDifferentialCacheConsistencyRandomized replays seeded random
// interleavings of queries and DML against a cache-enabled planner and a
// cold one, asserting byte-identical answers at P ∈ {1, 2, 8}. On the first
// divergence the op sequence and then the fact table are ddmin-shrunk
// and dumped as a standalone SQL reproducer.
func TestDifferentialCacheConsistencyRandomized(t *testing.T) {
	defer leakcheck.Check(t)()
	rng := rand.New(rand.NewSource(20260806))
	trials := 5
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		rows := cacheTableRows(rng, 100+rng.Intn(200))
		ops := randCacheOps(rng, 24+rng.Intn(24), len(rows))
		for _, par := range cacheParallelisms {
			err := replayCacheOps(cacheSchema, rows, ops, par)
			if err == nil {
				continue
			}
			failsOps := func(cand []cacheOp) bool {
				return replayCacheOps(cacheSchema, rows, cand, par) != nil
			}
			minOps := minimizeCacheOps(ops, failsOps)
			failsRows := func(cand [][]value.Value) bool {
				return replayCacheOps(cacheSchema, cand, minOps, par) != nil
			}
			minRows := MinimizeRows(rows, failsRows)
			t.Fatalf("trial %d P=%d: %v\nminimized reproducer (%d of %d ops, %d of %d rows):\n%s",
				trial, par, err, len(minOps), len(ops), len(minRows), len(rows),
				dumpCacheOps("f", cacheSchema, minRows, minOps))
		}
	}
}

// TestDifferentialCacheDirectedInterleavings pins the named maintenance
// paths with fixed sequences: single delta, folded pending chain,
// update/delete invalidation, Fj-from-cached-Fk across statements,
// non-distributive rebuild, two shapes alternating around DML, and a point
// UPDATE absorbed as −old / +new around an INSERT, after one, and twice on
// one row.
func TestDifferentialCacheDirectedInterleavings(t *testing.T) {
	defer leakcheck.Check(t)()
	q := func(i int) cacheOp { return cacheOp{Query: i} }
	ins := cacheOp{SQL: "INSERT INTO f VALUES (0, 1, 'x', 7, 1000, 0.7), (2, 3, 'z', -2, 1001, -0.2)"}
	upd := func(a, id int) cacheOp { return cacheOp{SQL: fmt.Sprintf("UPDATE f SET a = %d WHERE id = %d", a, id)} }
	seqs := [][]cacheOp{
		{q(0), ins, q(0)},           // one pending delta
		{q(0), ins, ins, ins, q(0)}, // chain folded by one refresh
		{q(0), {SQL: "UPDATE f SET a = 9 WHERE d1 = 1"}, q(0)}, // rebuild after update
		{q(0), {SQL: "DELETE FROM f WHERE d2 = 2"}, q(0)},      // rebuild after delete
		{q(0), q(1), ins, q(0), q(1)},                          // Fj rolled up from cached Fk, then both delta
		{q(5), ins, q(5)},                                      // avg: non-distributive, must rebuild
		{q(3), q(4), ins, q(4), q(3)},                          // distributive extras ride the delta
		{q(6), ins, q(6), q(0)},                                // WHERE-keyed entry stays distinct
		{q(0), q(3), ins, upd(5, 1000), q(0), upd(6, 3), q(3)}, // INSERT → UPDATE of an appended row, then of a covered one
		{q(0), q(3), upd(5, 3), ins, q(0), q(3)},               // UPDATE → INSERT: signed rows and an append range in one refresh
		{q(3), upd(5, 3), upd(-4, 3), q(3), q(0)},              // UPDATE → UPDATE of the same row
		{q(7), q(4), upd(5, 3), q(7), q(4)},                    // REAL sum, min / max: the same UPDATE must invalidate
	}
	rng := rand.New(rand.NewSource(7))
	rows := cacheTableRows(rng, 150)
	for si, ops := range seqs {
		for _, par := range cacheParallelisms {
			if err := replayCacheOps(cacheSchema, rows, ops, par); err != nil {
				t.Errorf("seq %d P=%d: %v", si, par, err)
			}
		}
	}
}
