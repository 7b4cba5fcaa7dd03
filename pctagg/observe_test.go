package pctagg

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestQueryTracedVertical(t *testing.T) {
	db := demoDB(t)
	rows, root, err := db.QueryTraced(
		"SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 4 {
		t.Fatalf("data = %v", rows.Data)
	}
	if root == nil || root.Name != "query" || root.Duration <= 0 {
		t.Fatalf("root = %v", root)
	}
	for _, frag := range []string{"parse", "plan vertical", "divide", "statement", "final select", "cleanup"} {
		if root.Find(frag) == nil {
			t.Errorf("trace lacks %q span:\n%s", frag, root.Format())
		}
	}
	// The division-join step must nest the actual join statement.
	if div := root.Find("divide"); div != nil && div.Find("statement") == nil {
		t.Errorf("division step has no statement span:\n%s", div.Format())
	}
}

func TestTraceSinkReceivesQueries(t *testing.T) {
	db := demoDB(t)
	var got []*Span
	db.SetTraceSink(func(s *Span) { got = append(got, s) })
	if _, err := db.Query("SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state"); err != nil {
		t.Fatal(err)
	}
	db.SetTraceSink(nil)
	if _, err := db.Query("SELECT count(*) FROM sales"); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("sink received %d traces, want 1 (detach must stick)", len(got))
	}
	if got[0].Find("plan horizontal") == nil {
		t.Errorf("trace lacks plan span:\n%s", got[0].Format())
	}
}

func TestExplainAnalyzePercentageQuery(t *testing.T) {
	db := demoDB(t)
	rows, err := db.Query("EXPLAIN ANALYZE SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city")
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	for _, r := range rows.Data {
		text.WriteString(r[0].(string))
		text.WriteByte('\n')
	}
	out := text.String()
	for _, frag := range []string{"plan vertical", "step: ", "divide", "Execution: rows=4", "out="} {
		if !strings.Contains(out, frag) {
			t.Errorf("EXPLAIN ANALYZE lacks %q:\n%s", frag, out)
		}
	}
	// Plain EXPLAIN still shows the generated SQL script, and must not leave
	// temporaries behind.
	rows, err = db.Query("EXPLAIN SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) == 0 || !strings.Contains(rows.Data[0][0].(string), "--") {
		t.Errorf("plain EXPLAIN output = %v", rows.Data)
	}
	if n := len(db.Tables()); n != 1 {
		t.Errorf("EXPLAIN leaked temporaries: tables = %v", db.Tables())
	}
}

func TestSlowQueryLogAPI(t *testing.T) {
	db := demoDB(t)
	var buf bytes.Buffer
	db.SetSlowQueryLog(&buf, 0)
	if _, err := db.Query("SELECT count(*) FROM sales"); err != nil {
		t.Fatal(err)
	}
	db.SetSlowQueryLog(nil, time.Second)
	if !strings.Contains(buf.String(), "slow query (") {
		t.Errorf("slow log = %q", buf.String())
	}
}

func TestQueryMetrics(t *testing.T) {
	db := demoDB(t)
	vpct, plain := mQueryVpct.Value(), mQueryPlain.Value()
	if _, err := db.Query("SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT count(*) FROM sales"); err != nil {
		t.Fatal(err)
	}
	if got := mQueryVpct.Value() - vpct; got != 1 {
		t.Errorf("vpct delta = %d, want 1", got)
	}
	if got := mQueryPlain.Value() - plain; got != 1 {
		t.Errorf("plain delta = %d, want 1", got)
	}

	// A planner rejection counts under its PCTxxx diagnostic code.
	if _, err := db.Query("SELECT state, Vpct(salesAmt BY state) FROM sales GROUP BY state"); err == nil {
		t.Fatal("expected rejection")
	}
	if obs.Default.Counter("query.errors.PCT017").Value() == 0 {
		t.Errorf("PCT017 rejection not counted; metrics:\n%s", db.MetricsJSON())
	}
}

func TestMetricsJSON(t *testing.T) {
	db := demoDB(t)
	if _, err := db.Query("SELECT count(*) FROM sales"); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(db.MetricsJSON()), &m); err != nil {
		t.Fatalf("MetricsJSON is not valid JSON: %v", err)
	}
	for _, name := range []string{"engine.statements", "engine.rows.scanned", "query.plain"} {
		if _, ok := m[name]; !ok {
			t.Errorf("MetricsJSON lacks %q", name)
		}
	}
}

// TestMetricNamesStable is the registry guard: every metric name registered
// anywhere in the process must be unique (the registry panics on kind
// clashes, so uniqueness is given) and must either be one of the pinned
// stable names below or match a known dynamic prefix. Renaming or dropping a
// pinned name is a breaking change to dashboards — update this list
// deliberately.
func TestMetricNamesStable(t *testing.T) {
	db := demoDB(t)
	// Exercise every layer once so lazily-registered names exist.
	if _, err := db.Query("SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city"); err != nil {
		t.Fatal(err)
	}
	pinned := []string{
		"batch.fold.rows",
		"batch.folds",
		"cache.delta_applied",
		"cache.delta_fallback",
		"cache.fj_rollup",
		"cache.hits",
		"cache.invalidations",
		"cache.lattice_finest_reused",
		"cache.lattice_nodes",
		"cache.lattice_plans",
		"cache.misses",
		"core.plans",
		"core.steps",
		"engine.agg.parallel",
		"engine.agg.seq_fallback",
		"engine.cancelled",
		"engine.limits.exceeded",
		"engine.panics",
		"engine.errors",
		"engine.groups.emitted",
		"engine.join.builds",
		"engine.join.index_reuse",
		"engine.rows.scanned",
		"engine.statement.ns",
		"engine.statements",
		"introspect.recorded",
		"introspect.self_skipped",
		"introspect.snapshots",
		"query.hagg",
		"query.hpct",
		"query.plain",
		"query.vpct",
	}
	names := obs.Default.Names()
	have := make(map[string]bool, len(names))
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate metric name %q", n)
		}
		seen[n] = true
		have[n] = true
	}
	for _, p := range pinned {
		if !have[p] {
			t.Errorf("pinned metric %q not registered", p)
		}
		delete(have, p)
	}
	for n := range have {
		if !strings.HasPrefix(n, "query.errors.") {
			t.Errorf("unpinned metric %q: add it to the pinned list or a dynamic prefix", n)
		}
	}
}
