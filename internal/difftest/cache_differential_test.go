package difftest

import (
	"math/rand"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/value"
)

// cacheParallelisms is the cache suite's sweep: the sequential reference
// and a partition count that forces the parallel fold onto every build
// and rebuild the cache performs.
var cacheParallelisms = []int{1, 8}

// TestDifferentialCacheConsistencyRandomized replays seeded random
// interleavings of queries and DML against a cache-enabled planner and a
// cold one, asserting byte-identical answers at P ∈ {1, 8}. On the first
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
		rows := randTableRows(rng, 100+rng.Intn(200))
		ops := randCacheOps(rng, 24+rng.Intn(24))
		for _, par := range cacheParallelisms {
			err := replayCacheOps(randSchema, rows, ops, par)
			if err == nil {
				continue
			}
			failsOps := func(cand []cacheOp) bool {
				return replayCacheOps(randSchema, rows, cand, par) != nil
			}
			minOps := minimizeCacheOps(ops, failsOps)
			failsRows := func(cand [][]value.Value) bool {
				return replayCacheOps(randSchema, cand, minOps, par) != nil
			}
			minRows := minimizeRows(rows, failsRows)
			t.Fatalf("trial %d P=%d: %v\nminimized reproducer (%d of %d ops, %d of %d rows):\n%s",
				trial, par, err, len(minOps), len(ops), len(minRows), len(rows),
				dumpCacheOps("f", randSchema, minRows, minOps))
		}
	}
}

// TestDifferentialCacheDirectedInterleavings pins the named maintenance
// paths with fixed sequences: single delta, folded pending chain,
// update/delete invalidation, Fj-from-cached-Fk across statements,
// non-distributive rebuild, and two shapes alternating around DML.
func TestDifferentialCacheDirectedInterleavings(t *testing.T) {
	defer leakcheck.Check(t)()
	q := func(i int) cacheOp { return cacheOp{Query: i} }
	ins := cacheOp{SQL: "INSERT INTO f VALUES (0, 1, 'x', 7), (2, 3, 'z', -2)"}
	seqs := [][]cacheOp{
		{q(0), ins, q(0)},           // one pending delta
		{q(0), ins, ins, ins, q(0)}, // chain folded by one refresh
		{q(0), {SQL: "UPDATE f SET a = 9 WHERE d1 = 1"}, q(0)}, // rebuild after update
		{q(0), {SQL: "DELETE FROM f WHERE d2 = 2"}, q(0)},      // rebuild after delete
		{q(0), q(1), ins, q(0), q(1)},                          // Fj rolled up from cached Fk, then both delta
		{q(5), ins, q(5)},                                      // avg: non-distributive, must rebuild
		{q(3), q(4), ins, q(4), q(3)},                          // distributive extras ride the delta
		{q(6), ins, q(6), q(0)},                                // WHERE-keyed entry stays distinct
	}
	rng := rand.New(rand.NewSource(7))
	rows := randTableRows(rng, 150)
	for si, ops := range seqs {
		for _, par := range cacheParallelisms {
			if err := replayCacheOps(randSchema, rows, ops, par); err != nil {
				t.Errorf("seq %d P=%d: %v", si, par, err)
			}
		}
	}
}
