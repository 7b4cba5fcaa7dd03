// Cache-consistency differential harness: proves the DML-aware summary
// cache invisible. A cached planner and a cold planner replay the same
// randomized interleaving of percentage queries and DML over identical
// fact tables; every query's result must be byte-identical between the
// two — same kinds, same order, no tolerance — at every parallelism. Any
// difference means the cache served a stale, half-merged, or misfolded
// summary. On divergence the op sequence (and then the table) is shrunk
// ddmin-style to a minimal standalone reproducer.
package difftest

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/value"

	"repro/internal/engine"
)

// cacheOp is one step of an interleaving: either a DML statement (SQL
// non-empty) applied to both planners, or a percentage query (Query
// indexes cacheQueries) run on both and compared exactly.
type cacheOp struct {
	SQL   string
	Query int
}

// isQuery reports whether the op is a compare point rather than DML.
func (o cacheOp) isQuery() bool { return o.SQL == "" }

// cacheQueries are the shapes the interleavings draw from, chosen to hit
// every maintenance path: plain Vpct (delta-merge), a second BY over the
// same GROUP BY (Fj rolled up from the cached Fk), a wider lattice key,
// distributive extra aggregates (sum/count ride an UPDATE as −old / +new,
// min/max only an INSERT), avg (non-distributive — DML must force a
// rebuild), a WHERE-keyed entry that must not alias the unfiltered one, and
// a REAL measure (an UPDATE must invalidate: −old / +new would round).
var cacheQueries = []string{
	"SELECT d1, d2, Vpct(a BY d2) FROM f GROUP BY d1, d2",
	"SELECT d1, d2, Vpct(a BY d1) FROM f GROUP BY d1, d2",
	"SELECT d1, d2, d3, Vpct(a BY d2, d3) FROM f GROUP BY d1, d2, d3",
	"SELECT d1, d2, Vpct(a BY d2), sum(a), count(*) FROM f GROUP BY d1, d2",
	"SELECT d1, d2, Vpct(a BY d2), min(a), max(a) FROM f GROUP BY d1, d2",
	"SELECT d1, d2, Vpct(a BY d2), avg(a) FROM f GROUP BY d1, d2",
	"SELECT d1, d2, Vpct(a BY d2) FROM f WHERE d1 < 2 GROUP BY d1, d2",
	"SELECT d1, d2, Vpct(r BY d2) FROM f GROUP BY d1, d2",
}

var cacheDims = []string{"x", "y", "z"}

// cacheRow renders one row of f for an INSERT: the dimensions, the measure,
// the unique id the point UPDATEs address, and r, the measure's REAL twin.
func cacheRow(rng *rand.Rand, id int) string {
	a, r := fmt.Sprint(rng.Intn(21)-5), fmt.Sprint(float64(rng.Intn(200))/10)
	if rng.Intn(15) == 0 {
		a, r = "NULL", "NULL"
	}
	return fmt.Sprintf("(%d, %d, '%s', %s, %d, %s)", rng.Intn(3), rng.Intn(4), cacheDims[rng.Intn(3)], a, id, r)
}

// randCacheOps generates a seeded interleaving of n ops over a table loaded
// with rows rows (ids 0..rows-1), bracketed by queries so the cache is
// populated before the first DML and checked after the last. Inserts
// dominate (the append path); UPDATEs come in every shape the cache tells
// apart — one row's measure (the signed path), a row inserted since the last
// query (inside a pending range), a whole group's measure, a grouping column,
// a measure set to NULL, no row at all — and deletes often enough to exercise
// invalidation.
func randCacheOps(rng *rand.Rand, n, rows int) []cacheOp {
	ops := make([]cacheOp, 0, n+2)
	ops = append(ops, cacheOp{Query: rng.Intn(len(cacheQueries))})
	var fresh []int // ids inserted since the last query
	for i := 0; i < n; i++ {
		id, amt := rng.Intn(rows), rng.Intn(31)-5
		switch k := rng.Intn(16); {
		case k < 5:
			ops, fresh = append(ops, cacheOp{Query: rng.Intn(len(cacheQueries))}), nil
		case k < 9:
			vals := make([]string, 1+rng.Intn(3))
			for j := range vals {
				vals[j], fresh, rows = cacheRow(rng, rows), append(fresh, rows), rows+1
			}
			ops = append(ops, cacheOp{SQL: "INSERT INTO f VALUES " + strings.Join(vals, ", ")})
		case k < 11:
			ops = append(ops, cacheOp{SQL: fmt.Sprintf("UPDATE f SET a = %d WHERE id = %d", amt, id)})
		case k == 11 && len(fresh) > 0:
			ops = append(ops, cacheOp{SQL: fmt.Sprintf("UPDATE f SET a = %d, d1 = %d WHERE id = %d", amt, rng.Intn(3), fresh[rng.Intn(len(fresh))])})
		case k == 11:
			ops = append(ops, cacheOp{SQL: fmt.Sprintf("UPDATE f SET a = %d, r = %d.5 WHERE id = %d", amt, amt, id)})
		case k == 12:
			ops = append(ops, cacheOp{SQL: fmt.Sprintf(
				"UPDATE f SET a = %d WHERE d1 = %d AND d2 = %d", amt, rng.Intn(3), rng.Intn(4))})
		case k == 13:
			ops = append(ops, cacheOp{SQL: fmt.Sprintf("UPDATE f SET d2 = %d WHERE id = %d", rng.Intn(4), id)})
		case k == 14:
			ops = append(ops, cacheOp{SQL: []string{
				fmt.Sprintf("UPDATE f SET a = NULL WHERE id = %d", id),
				"UPDATE f SET a = 1 WHERE id = -1",
				"DELETE FROM f WHERE id = -1",
			}[rng.Intn(3)]})
		default:
			// Narrow predicate: the table shrinks but survives.
			ops = append(ops, cacheOp{SQL: fmt.Sprintf(
				"DELETE FROM f WHERE d1 = %d AND d2 = %d AND d3 = '%s'",
				rng.Intn(3), rng.Intn(4), cacheDims[rng.Intn(3)])})
		}
	}
	ops = append(ops, cacheOp{Query: rng.Intn(len(cacheQueries))})
	return ops
}

func cachePlannerFor(schema storage.Schema, rows [][]value.Value) (*core.Planner, error) {
	cat := storage.NewCatalog()
	tab, err := cat.Create("f", schema)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if _, err := tab.AppendRow(r); err != nil {
			return nil, err
		}
	}
	return core.NewPlanner(engine.New(cat)), nil
}

// replayCacheOps replays one interleaving against a cache-enabled planner
// and a cold reference planner over identical copies of the initial
// table, running every query op on both at the given parallelism. It
// returns a description of the first divergence, or nil when the cache
// was invisible end to end. Deterministic: same inputs, same verdict.
func replayCacheOps(schema storage.Schema, initial [][]value.Value, ops []cacheOp, parallelism int) error {
	cached, err := cachePlannerFor(schema, initial)
	if err != nil {
		return err
	}
	cold, err := cachePlannerFor(schema, initial)
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
		sql := cacheQueries[op.Query]
		got, err := Run(cached, sql, core.DefaultOptions(), parallelism)
		if err != nil {
			return fmt.Errorf("op %d cached: %w", i, err)
		}
		want, err := Run(cold, sql, core.DefaultOptions(), parallelism)
		if err != nil {
			return fmt.Errorf("op %d cold: %w", i, err)
		}
		if diff := Equal(want, got); diff != "" {
			return fmt.Errorf("op %d (P=%d) %s: cached diverges from cold: %s", i, parallelism, sql, diff)
		}
	}
	return nil
}

// minimizeCacheOps shrinks a failing op sequence while the predicate
// keeps failing, with the same ddmin chunk-removal loop MinimizeRows
// uses. Every subsequence of an interleaving is itself a valid
// interleaving (each op is self-contained SQL), so removal is always
// legal. The predicate must be deterministic.
func minimizeCacheOps(ops []cacheOp, failing func([]cacheOp) bool) []cacheOp {
	cur := ops
	for chunk := len(cur) / 2; chunk >= 1; {
		removed := false
		for start := 0; start < len(cur); {
			end := start + chunk
			if end > len(cur) {
				end = len(cur)
			}
			cand := make([]cacheOp, 0, len(cur)-(end-start))
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[end:]...)
			if len(cand) > 0 && failing(cand) {
				cur = cand
				removed = true
				// retry the same start: the next chunk slid into place
			} else {
				start = end
			}
		}
		if !removed {
			chunk /= 2
		}
	}
	return cur
}

// dumpCacheOps renders a standalone reproducer: the minimized table as
// CREATE + INSERTs, then the minimized interleaving in replay order.
func dumpCacheOps(table string, schema storage.Schema, rows [][]value.Value, ops []cacheOp) string {
	var sb strings.Builder
	sb.WriteString(DumpRows(table, schema, rows))
	sb.WriteString("-- enable the summary cache (ShareSummaries), then replay:\n")
	for _, op := range ops {
		if op.isQuery() {
			fmt.Fprintf(&sb, "%s; -- Compare against a cold Run\n", cacheQueries[op.Query])
		} else {
			fmt.Fprintf(&sb, "%s;\n", op.SQL)
		}
	}
	return sb.String()
}
