package core

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden generated-SQL file")

// TestGeneratedSQLGolden pins the exact SQL text the code generator emits
// for the flagship query shapes. Codegen regressions — wrong join
// conditions, lost CASE guards, reordered steps — show up as a readable
// text diff. Regenerate after intentional changes with:
//
//	go test ./internal/core/ -run Golden -update
func TestGeneratedSQLGolden(t *testing.T) {
	const (
		vpctExtras = "SELECT state, city, Vpct(salesAmt BY city), sum(salesAmt), count(*) FROM sales GROUP BY state, city"
		haggDaily  = "SELECT store, sum(salesAmt BY dweek) FROM daily GROUP BY store"
	)
	run := func(sql string) func(*testing.T, *Planner) {
		return func(t *testing.T, p *Planner) { runQuery(t, p, sql, DefaultOptions()) }
	}
	cases := []struct {
		name string
		sql  string
		opts Options
		// share turns the summary cache on; prep runs on the planner before
		// the pinned plan is generated (a warming query, DML, MaxColumns).
		share bool
		prep  func(*testing.T, *Planner)
	}{
		{name: "vpct_best", sql: vpctSales, opts: DefaultOptions()},
		{name: "vpct_update", sql: vpctSales,
			opts: Options{Vpct: VpctOptions{UseUpdate: true, SubkeyIndexes: true}}},
		{name: "vpct_fj_from_f", sql: vpctSales,
			opts: Options{Vpct: VpctOptions{FjFromF: true}}},
		{name: "vpct_missing_post", sql: "SELECT store, dweek, Vpct(salesAmt BY dweek) FROM daily GROUP BY store, dweek",
			opts: Options{Vpct: VpctOptions{SubkeyIndexes: true, MissingRows: MissingPost}}},
		{name: "hpct_direct", sql: hpctDaily, opts: DefaultOptions()},
		{name: "hpct_from_fv", sql: hpctDaily,
			opts: Options{Hpct: HpctOptions{FromFV: true}}},
		{name: "hagg_case", sql: haggDaily, opts: DefaultOptions()},
		{name: "hagg_spj", sql: haggDaily, opts: Options{Hagg: HaggOptions{Method: HaggSPJ}}},

		{name: "vpct_two_terms_fj_reuse",
			sql:  "SELECT state, city, Vpct(salesAmt BY city), Vpct(salesAmt) FROM sales GROUP BY state, city",
			opts: DefaultOptions()},
		{name: "vpct_extras_shared_miss", sql: vpctExtras, opts: DefaultOptions(), share: true},
		{name: "vpct_extras_shared_hit", sql: vpctExtras, opts: DefaultOptions(), share: true,
			prep: run(vpctExtras)},
		{name: "vpct_extras_shared_delta", sql: vpctExtras, opts: DefaultOptions(), share: true,
			prep: func(t *testing.T, p *Planner) {
				run(vpctExtras)(t, p)
				mustExec(t, p.Eng, "INSERT INTO sales VALUES (11,'WA','Seattle',50)")
			}},
		{name: "hpct_from_fv_extras",
			sql:  "SELECT store, Hpct(salesAmt BY dweek), avg(salesAmt), count(salesAmt), min(salesAmt) FROM daily GROUP BY store",
			opts: Options{Hpct: HpctOptions{FromFV: true}}},
		{name: "hagg_case_from_fv_multi",
			sql:  "SELECT store, sum(salesAmt BY dweek), avg(salesAmt BY dweek), count(*) FROM daily GROUP BY store",
			opts: Options{Hagg: HaggOptions{FromFV: true}}},
		{name: "hagg_spj_from_fv_extras",
			sql:  "SELECT store, max(salesAmt BY dweek), sum(salesAmt), avg(salesAmt) FROM daily GROUP BY store",
			opts: Options{Hagg: HaggOptions{Method: HaggSPJ, FromFV: true}}},
		{name: "hpct_partitioned", sql: "SELECT store, Hpct(salesAmt BY dweek), sum(salesAmt) FROM daily GROUP BY store",
			opts: DefaultOptions(), prep: func(_ *testing.T, p *Planner) { p.MaxColumns = 4 }},
		{name: "rollup_hpct_extras",
			sql:  "SELECT state, city, Hpct(salesAmt BY RID), sum(salesAmt), count(*), GROUPING(state, city) FROM sales WHERE RID < 4 GROUP BY ROLLUP(state, city)",
			opts: DefaultOptions()},
	}

	var sb strings.Builder
	for _, c := range cases {
		// A fresh planner per case keeps temp numbering deterministic.
		p := newSalesPlanner(t)
		p.ShareSummaries(c.share)
		if c.prep != nil {
			c.prep(t, p)
		}
		plan, err := p.PlanSQL(c.sql, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sb.WriteString("===== " + c.name + " =====\n")
		sb.WriteString("-- query: " + c.sql + "\n")
		sb.WriteString(plan.SQL())
		sb.WriteString("\n")
		p.CleanupPlan(plan)
		p.FlushSummaries()
	}
	got := sb.String()

	path := filepath.Join("testdata", "generated_sql.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten (%d bytes)", len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("generated SQL diverges from golden at line %d:\n  got:  %s\n  want: %s\n(run with -update if intentional)", i+1, g, w)
			}
		}
		t.Fatal("generated SQL diverges from golden (length mismatch)")
	}
}
