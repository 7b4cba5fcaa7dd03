package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/value"
)

// Summary-cache consistency suite: the cache must never serve a percentage
// computed before DML changed the base table. Freshness is proven by
// comparing every cached answer against a cold planner sharing the same
// engine (separate temp prefix, sharing off), cell by cell.

// newCachePlanners returns a sharing planner and a cold reference planner
// over the same sales fixture.
func newCachePlanners(t *testing.T) (*Planner, *Planner) {
	t.Helper()
	p := newSalesPlanner(t)
	p.ShareSummaries(true)
	cold := NewPlanner(p.Eng)
	cold.TempPrefix = "cold"
	return p, cold
}

// exactResults asserts byte-identical results: same kinds, same raw values,
// no float tolerance — the incremental merge must reproduce the cold fold's
// bits, not approximate them.
func exactResults(t *testing.T, label string, got, want *engine.Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: row counts differ: %d vs %d\n%v\nvs\n%v", label, len(got.Rows), len(want.Rows), got.Rows, want.Rows)
	}
	for i := range got.Rows {
		if len(got.Rows[i]) != len(want.Rows[i]) {
			t.Fatalf("%s: row %d widths differ: %v vs %v", label, i, got.Rows[i], want.Rows[i])
		}
		for j := range got.Rows[i] {
			a, b := got.Rows[i][j], want.Rows[i][j]
			if a.Kind() != b.Kind() || a.String() != b.String() {
				t.Fatalf("%s: row %d col %d: %v (%v) vs %v (%v)", label, i, j, a, a.Kind(), b, b.Kind())
			}
		}
	}
}

// TestShareSummariesStalenessRegression is the regression for the original
// bug this cache replaces: with sharing on, a query after an INSERT used to
// silently serve the pre-insert summary. It must now reflect the new rows.
func TestShareSummariesStalenessRegression(t *testing.T) {
	p, cold := newCachePlanners(t)
	r1 := runQuery(t, p, vpctSales, DefaultOptions())
	mustExec(t, p.Eng, "INSERT INTO sales VALUES (11,'WA','Seattle',50),(12,'WA','Spokane',25),(13,'CA','San Francisco',17)")
	r2 := runQuery(t, p, vpctSales, DefaultOptions())
	want := runQuery(t, cold, vpctSales, DefaultOptions())
	exactResults(t, "post-insert", r2, want)
	if len(r2.Rows) <= len(r1.Rows) {
		t.Fatalf("stale summary: %d rows before insert, %d after — the WA groups are missing", len(r1.Rows), len(r2.Rows))
	}
	p.FlushSummaries()
	for _, n := range p.Eng.Catalog().Names() {
		if strings.HasPrefix(n, "pct_") {
			t.Errorf("flush left cache table %s behind", n)
		}
	}
}

// TestCacheDeltaApplied pins the mechanism, not just the answer: the
// post-insert query must be served by incremental maintenance (delta
// rollup + merge), not a silent full rebuild.
func TestCacheDeltaApplied(t *testing.T) {
	p, cold := newCachePlanners(t)
	runQuery(t, p, vpctSales, DefaultOptions())
	s0 := p.CacheStats()
	if s0.Misses == 0 {
		t.Fatalf("first query registered no cache entries: %+v", s0)
	}
	mustExec(t, p.Eng, "INSERT INTO sales VALUES (11,'WA','Seattle',50)")
	r := runQuery(t, p, vpctSales, DefaultOptions())
	exactResults(t, "delta", r, runQuery(t, cold, vpctSales, DefaultOptions()))
	s1 := p.CacheStats()
	if s1.DeltaApplied < s0.DeltaApplied+2 { // Fk and Fj both refresh incrementally
		t.Errorf("DeltaApplied = %d → %d, want both Fk and Fj maintained incrementally", s0.DeltaApplied, s1.DeltaApplied)
	}
	if s1.Hits <= s0.Hits {
		t.Errorf("Hits = %d → %d, want the post-insert query counted as a (delta) hit", s0.Hits, s1.Hits)
	}
	// A third query with no DML in between is a clean hit: no delta work.
	runQuery(t, p, vpctSales, DefaultOptions())
	s2 := p.CacheStats()
	if s2.DeltaApplied != s1.DeltaApplied {
		t.Errorf("clean hit ran delta maintenance: %d → %d", s1.DeltaApplied, s2.DeltaApplied)
	}
	if s2.Hits <= s1.Hits {
		t.Errorf("Hits = %d → %d, want a clean hit", s1.Hits, s2.Hits)
	}
}

// TestCacheDeltaChain interleaves several inserts and queries; every answer
// must be byte-identical to the cold path, including inserts that extend
// existing groups, create new ones, and arrive back to back between queries.
func TestCacheDeltaChain(t *testing.T) {
	p, cold := newCachePlanners(t)
	inserts := []string{
		"INSERT INTO sales VALUES (11,'CA','San Francisco',8)",                // existing group grows
		"INSERT INTO sales VALUES (12,'WA','Seattle',50)",                     // new state and city
		"INSERT INTO sales VALUES (13,'TX','Austin',21),(14,'TX','Austin',9)", // new city, two rows
		"INSERT INTO sales VALUES (15,'WA','Seattle',1)",
	}
	runQuery(t, p, vpctSales, DefaultOptions())
	for i, ins := range inserts {
		mustExec(t, p.Eng, ins)
		if i == 2 { // two pending deltas folded by one refresh
			mustExec(t, p.Eng, "INSERT INTO sales VALUES (99,'CA','Los Angeles',4)")
		}
		got := runQuery(t, p, vpctSales, DefaultOptions())
		want := runQuery(t, cold, vpctSales, DefaultOptions())
		exactResults(t, ins, got, want)
	}
}

// TestCacheUpdateAndDeleteInvalidate: mutations the delta path cannot cover
// must invalidate the entry and rebuild — never serve the old summary.
func TestCacheUpdateAndDeleteInvalidate(t *testing.T) {
	for _, dml := range []string{
		"UPDATE sales SET city = 'Oakland' WHERE RID = 1", // a row moves between groups
		"UPDATE sales SET salesAmt = NULL WHERE RID = 4",  // a sum may lose its last value
		"DELETE FROM sales WHERE state = 'TX'",
		"UPDATE sales FROM daily SET salesAmt = 1 WHERE sales.RID = daily.store",
	} {
		p, cold := newCachePlanners(t)
		runQuery(t, p, vpctSales, DefaultOptions())
		s0 := p.CacheStats()
		mustExec(t, p.Eng, dml)
		got := runQuery(t, p, vpctSales, DefaultOptions())
		exactResults(t, dml, got, runQuery(t, cold, vpctSales, DefaultOptions()))
		s1 := p.CacheStats()
		if s1.Invalidations <= s0.Invalidations {
			t.Errorf("%s: Invalidations = %d → %d, want the entries invalidated", dml, s0.Invalidations, s1.Invalidations)
		}
	}
}

// TestCacheUpdateAbsorbed pins what a bounded in-place UPDATE does to a
// summary over exact-invertible cells: a column the summary does not read
// restamps it (the next query is a clean hit), a measure change rides the
// delta path as −old / +new — also twice on one row, also on a row inside a
// pending append range, also before and after an INSERT — and nothing is
// invalidated; every answer equals the cold planner's bit for bit.
func TestCacheUpdateAbsorbed(t *testing.T) {
	const q = "SELECT state, city, Vpct(salesAmt BY city), sum(salesAmt), count(*), count(salesAmt) FROM sales GROUP BY state, city"
	p, cold := newCachePlanners(t)
	runQuery(t, p, q, DefaultOptions())
	steps := []struct {
		dml         string
		wantApplied bool
	}{
		{"UPDATE sales SET RID = RID + 100 WHERE state = 'CA'", false},
		{"UPDATE sales SET salesAmt = 999 WHERE RID = 103", true},
		{"UPDATE sales SET salesAmt = 7 WHERE RID = 103; UPDATE sales SET salesAmt = salesAmt * 2 WHERE RID = 103", true},
		{"INSERT INTO sales VALUES (11,'WA','Seattle',50); UPDATE sales SET salesAmt = 51 WHERE RID = 11", true},
		{"UPDATE sales SET salesAmt = 0 WHERE city = 'Dallas'; INSERT INTO sales VALUES (12,'WA','Spokane',25)", true},
		{"INSERT INTO sales VALUES (13,'OR','Salem',5); UPDATE sales SET city = 'Bend' WHERE RID = 13; UPDATE sales SET salesAmt = 1 WHERE RID = 9", true},
		{"UPDATE sales SET salesAmt = 3 WHERE RID = 4000", false}, // no row: nothing happens
	}
	for _, st := range steps {
		s0 := p.CacheStats()
		mustExec(t, p.Eng, st.dml)
		got := runQuery(t, p, q, DefaultOptions())
		exactResults(t, st.dml, got, runQuery(t, cold, q, DefaultOptions()))
		s1 := p.CacheStats()
		if s1.Invalidations != s0.Invalidations || s1.Misses != s0.Misses {
			t.Errorf("%s: stats %+v → %+v, want no invalidation and no rebuild", st.dml, s0, s1)
		}
		if applied := s1.DeltaApplied > s0.DeltaApplied; applied != st.wantApplied {
			t.Errorf("%s: DeltaApplied = %d → %d, want a delta merge: %v", st.dml, s0.DeltaApplied, s1.DeltaApplied, st.wantApplied)
		}
	}
}

// TestCacheUpdateNotInvertibleInvalidates: a measure change under a REAL sum,
// a min or an avg cannot be taken as −old / +new and must rebuild, while the
// same summaries survive an UPDATE of a column they do not read.
func TestCacheUpdateNotInvertibleInvalidates(t *testing.T) {
	for _, q := range []string{
		"SELECT state, city, Vpct(amt BY city) FROM r GROUP BY state, city",
		"SELECT state, city, Vpct(salesAmt BY city), min(salesAmt) FROM r GROUP BY state, city",
		"SELECT state, city, Vpct(salesAmt BY city), avg(salesAmt) FROM r GROUP BY state, city",
		"SELECT state, city, Vpct(salesAmt + 1 BY city) FROM r GROUP BY state, city",
	} {
		p, cold := newCachePlanners(t)
		mustExec(t, p.Eng, "CREATE TABLE r (RID INTEGER, state VARCHAR, city VARCHAR, salesAmt INTEGER, amt REAL); INSERT INTO r SELECT RID, state, city, salesAmt, salesAmt / 8.0 FROM sales")
		runQuery(t, p, q, DefaultOptions())
		s0 := p.CacheStats()
		mustExec(t, p.Eng, "UPDATE r SET RID = 0 WHERE RID = 3")
		exactResults(t, q, runQuery(t, p, q, DefaultOptions()), runQuery(t, cold, q, DefaultOptions()))
		if s1 := p.CacheStats(); s1.Invalidations != s0.Invalidations || s1.Misses != s0.Misses {
			t.Errorf("%s: an UPDATE of an unread column moved the stats %+v → %+v", q, s0, s1)
		}
		mustExec(t, p.Eng, "UPDATE r SET salesAmt = 11, amt = 0.1 WHERE RID = 0")
		exactResults(t, q, runQuery(t, p, q, DefaultOptions()), runQuery(t, cold, q, DefaultOptions()))
		if s1 := p.CacheStats(); s1.Invalidations <= s0.Invalidations {
			t.Errorf("%s: Invalidations = %d → %d, want the measure change to invalidate", q, s0.Invalidations, s1.Invalidations)
		}
	}
}

// TestCacheUpdateOverBoundInvalidates: past engine.MutationBound affected
// rows the hook carries no images and the summary rebuilds.
func TestCacheUpdateOverBoundInvalidates(t *testing.T) {
	p, cold := newCachePlanners(t)
	for i := 0; i <= engine.MutationBound; i++ {
		mustExec(t, p.Eng, fmt.Sprintf("INSERT INTO sales VALUES (%d,'NV','Reno',%d)", 100+i, i))
	}
	runQuery(t, p, vpctSales, DefaultOptions())
	s0 := p.CacheStats()
	mustExec(t, p.Eng, fmt.Sprintf("UPDATE sales SET salesAmt = 2 WHERE city = 'Reno' AND RID < %d", 100+engine.MutationBound))
	exactResults(t, "at the bound", runQuery(t, p, vpctSales, DefaultOptions()), runQuery(t, cold, vpctSales, DefaultOptions()))
	if s1 := p.CacheStats(); s1.Invalidations != s0.Invalidations {
		t.Errorf("an UPDATE of MutationBound rows invalidated: %+v → %+v", s0, s1)
	}
	mustExec(t, p.Eng, "UPDATE sales SET salesAmt = 3 WHERE city = 'Reno'")
	exactResults(t, "past the bound", runQuery(t, p, vpctSales, DefaultOptions()), runQuery(t, cold, vpctSales, DefaultOptions()))
	if s1 := p.CacheStats(); s1.Invalidations <= s0.Invalidations {
		t.Errorf("an UPDATE past MutationBound rows did not invalidate: %+v → %+v", s0, s1)
	}
}

// TestNoOpDMLKeepsCacheAndEpoch: a statement that affects no row changes
// nothing — the catalog holds the same table at the same epoch and no
// summary is invalidated.
func TestNoOpDMLKeepsCacheAndEpoch(t *testing.T) {
	p, _ := newCachePlanners(t)
	runQuery(t, p, vpctSales, DefaultOptions())
	before, _ := p.Eng.Catalog().Get("sales")
	epoch, s0 := before.Epoch(), p.CacheStats()
	for _, dml := range []string{
		"UPDATE sales SET salesAmt = 1 WHERE RID = 4000",
		"UPDATE sales SET salesAmt = 1 WHERE RID / 1 = 4000", // the row-by-row filter
		"DELETE FROM sales WHERE state = 'ZZ'",
		"UPDATE sales FROM daily SET salesAmt = 1 WHERE sales.RID = daily.store AND daily.dweek = 'Xx'",
	} {
		if r := mustExec(t, p.Eng, dml); r.Affected != 0 {
			t.Fatalf("%s affected %d rows, want 0", dml, r.Affected)
		}
		after, _ := p.Eng.Catalog().Get("sales")
		if after != before || after.Epoch() != epoch {
			t.Errorf("%s: table %p epoch %d → %p epoch %d, want both unchanged", dml, before, epoch, after, after.Epoch())
		}
	}
	runQuery(t, p, vpctSales, DefaultOptions())
	if s1 := p.CacheStats(); s1.Invalidations != s0.Invalidations || s1.Misses != s0.Misses || s1.DeltaApplied != s0.DeltaApplied {
		t.Errorf("no-op DML moved the cache: %+v → %+v", s0, s1)
	}
}

// TestCacheNonDistributiveRebuilds: a summary carrying avg cannot be
// merged across row partitions; DML must invalidate it, and the rebuilt
// answer must match cold.
func TestCacheNonDistributiveRebuilds(t *testing.T) {
	const q = "SELECT state, city, Vpct(salesAmt BY city), avg(salesAmt) FROM sales GROUP BY state, city"
	p, cold := newCachePlanners(t)
	runQuery(t, p, q, DefaultOptions())
	s0 := p.CacheStats()
	mustExec(t, p.Eng, "INSERT INTO sales VALUES (11,'CA','San Francisco',8)")
	got := runQuery(t, p, q, DefaultOptions())
	exactResults(t, "avg rebuild", got, runQuery(t, cold, q, DefaultOptions()))
	s1 := p.CacheStats()
	if s1.DeltaApplied > s0.DeltaApplied+1 {
		// Fj (pure sum) may still delta; the avg-carrying Fk must not.
		t.Errorf("DeltaApplied = %d → %d: the non-distributive Fk was merged incrementally", s0.DeltaApplied, s1.DeltaApplied)
	}
	if s1.Invalidations <= s0.Invalidations {
		t.Errorf("Invalidations = %d → %d, want the avg Fk invalidated on insert", s0.Invalidations, s1.Invalidations)
	}
}

// TestCacheDistributiveExtremesDelta: min/max are distributive and must
// ride the delta path, including a delta that moves the max.
func TestCacheDistributiveExtremesDelta(t *testing.T) {
	const q = "SELECT state, city, Vpct(salesAmt BY city), min(salesAmt), max(salesAmt) FROM sales GROUP BY state, city"
	p, cold := newCachePlanners(t)
	runQuery(t, p, q, DefaultOptions())
	s0 := p.CacheStats()
	mustExec(t, p.Eng, "INSERT INTO sales VALUES (11,'CA','San Francisco',500),(12,'CA','San Francisco',1)")
	got := runQuery(t, p, q, DefaultOptions())
	exactResults(t, "min/max delta", got, runQuery(t, cold, q, DefaultOptions()))
	if s1 := p.CacheStats(); s1.DeltaApplied <= s0.DeltaApplied {
		t.Errorf("DeltaApplied = %d → %d, want min/max maintained incrementally", s0.DeltaApplied, s1.DeltaApplied)
	}
}

// TestCacheFjRollupFromCachedFk: a second query whose coarse totals differ
// but whose fine aggregate matches must roll its Fj up from the cached Fk
// (the paper's Fj-from-Fk derivation, across statements) instead of
// rescanning F.
func TestCacheFjRollupFromCachedFk(t *testing.T) {
	const q2 = "SELECT state, city, Vpct(salesAmt BY state) FROM sales GROUP BY state, city"
	p, cold := newCachePlanners(t)
	runQuery(t, p, vpctSales, DefaultOptions())
	s0 := p.CacheStats()
	plan, err := p.PlanSQL(q2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range plan.Steps {
		if strings.Contains(s.Purpose, "fine aggregate Fk") {
			t.Errorf("q2 rebuilt Fk instead of reusing the cached one: %q", s.Purpose)
		}
	}
	got, err := p.ExecuteCtx(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	exactResults(t, "fj rollup", got, runQuery(t, cold, q2, DefaultOptions()))
	if s1 := p.CacheStats(); s1.FjRollups <= s0.FjRollups {
		t.Errorf("FjRollups = %d → %d, want the new Fj derived from the cached Fk", s0.FjRollups, s1.FjRollups)
	}
}

// TestCachePlanWithoutExecuteDoesNotPoison: an EXPLAINed (planned, cleaned
// up, never executed) query must not leave a phantom entry a later plan
// would trust — the later query has to build and answer correctly.
func TestCachePlanWithoutExecuteDoesNotPoison(t *testing.T) {
	p, cold := newCachePlanners(t)
	plan, err := p.PlanSQL(vpctSales, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p.CleanupPlan(plan) // the EXPLAIN path: never executed
	got := runQuery(t, p, vpctSales, DefaultOptions())
	exactResults(t, "after abandoned plan", got, runQuery(t, cold, vpctSales, DefaultOptions()))
	p.FlushSummaries()
	for _, n := range p.Eng.Catalog().Names() {
		if strings.HasPrefix(n, "pct_") {
			t.Errorf("abandoned plan left table %s behind", n)
		}
	}
}

// TestCacheDirectAppendInvalidates: rows appended behind the engine's back
// (no DML hook, epoch still ticks) must not be delta-merged — the epoch
// mismatch forces a rebuild and the answer stays correct.
func TestCacheDirectAppendInvalidates(t *testing.T) {
	p, cold := newCachePlanners(t)
	runQuery(t, p, vpctSales, DefaultOptions())
	tab, err := p.Eng.Catalog().Get("sales")
	if err != nil {
		t.Fatal(err)
	}
	row := []value.Value{value.NewInt(11), value.NewString("WA"), value.NewString("Seattle"), value.NewInt(50)}
	if _, err := tab.AppendRow(row); err != nil {
		t.Fatal(err)
	}
	got := runQuery(t, p, vpctSales, DefaultOptions())
	exactResults(t, "direct append", got, runQuery(t, cold, vpctSales, DefaultOptions()))
}

// TestCacheKeyIncludesColumnLayout is the regression for the key-collision
// bug the 5-part key fixes: two queries can render the identical Fk select
// list yet assign different column names — here "sum(salesAmt)" is stored
// as x1 (an extra aggregate alongside Vpct(RID)) in the first query and as
// m2 (a second Vpct measure) in the second. Under the old 4-part key the
// second plan was handed the first plan's cached table and failed to
// resolve its columns; the layouts must key separate entries.
func TestCacheKeyIncludesColumnLayout(t *testing.T) {
	p, cold := newCachePlanners(t)
	const qA = "SELECT state, city, Vpct(RID BY city), sum(salesAmt) FROM sales GROUP BY state, city"
	const qB = "SELECT state, city, Vpct(RID BY city), Vpct(salesAmt BY city) FROM sales GROUP BY state, city"
	runQuery(t, p, qA, DefaultOptions())
	got := runQuery(t, p, qB, DefaultOptions())
	exactResults(t, "layout collision", got, runQuery(t, cold, qB, DefaultOptions()))
	// And in the opposite order, against fresh entries.
	p.FlushSummaries()
	runQuery(t, p, qB, DefaultOptions())
	got = runQuery(t, p, qA, DefaultOptions())
	exactResults(t, "layout collision (reversed)", got, runQuery(t, cold, qA, DefaultOptions()))
	p.FlushSummaries()
}
