// Chaos matrix for the summary cache's two fault points: the delta-row
// snapshot (core.cache.delta) and the rollup merge (core.cache.merge).
// The cache's degradation contract is stronger than the engine's — an
// injected *error* mid-delta must not fail the query at all: the refresh
// falls back to a full rebuild and the answer stays byte-identical to an
// uncached run. A *panic* surfaces as a typed PCT206, and the very next
// query — the cache entry untouched, its pending delta intact — retries the
// refresh and succeeds. Neither kind may ever leave stale rows, a
// half-merged summary, or a stranded temp table.
package chaos_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/diag"
	"repro/internal/leakcheck"
	"repro/pctagg"
)

// cacheChaosDB is chaosDB with the summary cache on, one summary built, and
// a pending insert so the next query must run an incremental refresh.
func cacheChaosDB(t *testing.T) *pctagg.DB {
	t.Helper()
	db := chaosDB(t)
	db.EnableSummaryCache(true)
	const q = "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city"
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO sales VALUES (11,'WA','Seattle',50),(12,'WA','Spokane',25)"); err != nil {
		t.Fatal(err)
	}
	return db
}

// coldAnswer computes the expected post-insert result on a cache-free DB
// with identical data.
func coldAnswer(t *testing.T, sql string) [][]any {
	t.Helper()
	db := chaosDB(t)
	if _, err := db.Exec("INSERT INTO sales VALUES (11,'WA','Seattle',50),(12,'WA','Spokane',25)"); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	return rows.Data
}

func runCacheScenario(t *testing.T, point, kind string) {
	defer leakcheck.Check(t)()
	const q = "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city"
	db := cacheChaosDB(t)
	want := coldAnswer(t, q)

	f := chaos.Fault{}
	switch kind {
	case "error":
		f.Err = errInjected
	case "panic":
		f.Panic = "chaos-cache-panic"
	case "delay":
		f.Delay = 10 * time.Millisecond
	}
	fallbackBefore := metricValue(t, db, "cache.delta_fallback")
	chaos.Enable()
	defer chaos.Disable()
	chaos.Arm(point, f)

	rows, err := db.Query(q)
	fired := chaos.Fired(point)
	chaos.Disable()
	if fired == 0 {
		t.Fatalf("fault point %s never fired: the refresh did not take the delta path", point)
	}

	switch kind {
	case "error":
		// Degrade, don't fail: the refresh falls back to a rebuild and the
		// query succeeds with fresh rows.
		if err != nil {
			t.Fatalf("injected delta error failed the query instead of degrading to rebuild: %v", err)
		}
		if !reflect.DeepEqual(rows.Data, want) {
			t.Fatalf("fallback rebuild served wrong rows:\n%v\nwant\n%v", rows.Data, want)
		}
		if after := metricValue(t, db, "cache.delta_fallback"); after <= fallbackBefore {
			t.Errorf("cache.delta_fallback = %v, want > %v", after, fallbackBefore)
		}
	case "panic":
		if err == nil {
			t.Fatal("panic mid-refresh was not contained into an error")
		}
		var coded interface{ Code() string }
		if !errors.As(err, &coded) || coded.Code() != diag.CodePanic {
			t.Fatalf("err = %v, want a typed %s panic error", err, diag.CodePanic)
		}
	case "delay":
		if err != nil {
			t.Fatalf("pure-latency fault failed the refresh: %v", err)
		}
		if !reflect.DeepEqual(rows.Data, want) {
			t.Fatalf("delayed refresh served wrong rows:\n%v\nwant\n%v", rows.Data, want)
		}
	}

	// The retry after the fault must serve fresh, correct rows — the entry's
	// pending delta survives a failed refresh, and a fallback rebuild leaves
	// it current. Never stale.
	rows, err = db.Query(q)
	if err != nil {
		t.Fatalf("query after fault: %v", err)
	}
	if !reflect.DeepEqual(rows.Data, want) {
		t.Fatalf("stale rows after %s/%s:\n%v\nwant\n%v", point, kind, rows.Data, want)
	}

	// No stranded scratch tables: flushing the cache must restore the
	// catalog to the base table alone.
	db.FlushSummaries()
	for _, name := range db.Tables() {
		if strings.HasPrefix(name, "pct_") {
			t.Errorf("table %s leaked after %s/%s (cache temp tables must be dropped)", name, point, kind)
		}
	}
	if got := strings.Join(db.Tables(), ","); !strings.Contains(got, "sales") {
		t.Errorf("base table missing after %s/%s: %q", point, kind, got)
	}
}

// runCacheUpdateScenario faults an in-place UPDATE of the cached summary's
// base table after its first cell write. An error or a panic must leave every
// cached summary as it was — nothing invalidated, the pending insert still
// folded by the next query, which answers as if the UPDATE never ran; a delay
// lets the UPDATE commit and the summaries absorb it as −old / +new.
func runCacheUpdateScenario(t *testing.T, kind string) {
	defer leakcheck.Check(t)()
	const q = "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city"
	const upd = "UPDATE sales SET salesAmt = salesAmt + 1 WHERE state = 'CA'"
	db := cacheChaosDB(t)
	want := coldAnswer(t, q)
	stats := db.SummaryCacheStats()

	f := chaos.Fault{After: 1}
	switch kind {
	case "error":
		f.Err = errInjected
	case "panic":
		f.Panic = "chaos-update-panic"
	case "delay":
		f.Delay = 5 * time.Millisecond
	}
	chaos.Enable()
	defer chaos.Disable()
	chaos.Arm(chaos.UpdateApply, f)
	_, err := db.Exec(upd)
	fired := chaos.Fired(chaos.UpdateApply)
	chaos.Disable()
	if fired == 0 {
		t.Fatal("fault point engine.update.apply never fired: the UPDATE did not write in place")
	}
	if (err == nil) != (kind == "delay") {
		t.Fatalf("UPDATE under %s fault: err = %v", kind, err)
	}
	if kind == "delay" {
		cold := chaosDB(t)
		if _, err := cold.Exec("INSERT INTO sales VALUES (11,'WA','Seattle',50),(12,'WA','Spokane',25); " + upd); err != nil {
			t.Fatal(err)
		}
		rows, err := cold.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want = rows.Data
	}
	rows, err := db.Query(q)
	if err != nil {
		t.Fatalf("query after fault: %v", err)
	}
	if !reflect.DeepEqual(rows.Data, want) {
		t.Fatalf("rows after %s fault:\n%v\nwant\n%v", kind, rows.Data, want)
	}
	after := db.SummaryCacheStats()
	if after.Invalidations != stats.Invalidations || after.Misses != stats.Misses || after.DeltaApplied <= stats.DeltaApplied {
		t.Errorf("cache stats %+v → %+v: want nothing invalidated or rebuilt and the pending delta folded", stats, after)
	}
}

// TestCacheFaultMatrix drives both cache fault points, and the in-place
// UPDATE's under a populated cache, through error, panic, and delay injection.
func TestCacheFaultMatrix(t *testing.T) {
	for _, point := range []string{chaos.CacheDelta, chaos.CacheMerge, chaos.UpdateApply} {
		for _, kind := range []string{"error", "panic", "delay"} {
			point, kind := point, kind
			t.Run(point+"/"+kind, func(t *testing.T) {
				if point == chaos.UpdateApply {
					runCacheUpdateScenario(t, kind)
					return
				}
				runCacheScenario(t, point, kind)
			})
		}
	}
}
