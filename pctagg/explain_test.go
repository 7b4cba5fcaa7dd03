package pctagg

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/diag"
)

// TestExplainPlansAsQueryDoes: Explain resolves the options Query and the
// EXPLAIN statement plan with — the database's limits and, under
// AutoStrategy, the advisor's pick — so it refuses what they refuse and
// renders the script the EXPLAIN statement renders. A standard query
// returns itself.
func TestExplainPlansAsQueryDoes(t *testing.T) {
	db := demoDB(t)
	if _, err := db.Exec(`CREATE TABLE daily (store INTEGER, dweek VARCHAR, salesAmt INTEGER);
		INSERT INTO daily VALUES
		(2,'Mo',7),(2,'Tu',6),(2,'We',8),(2,'Th',9),(2,'Fr',16),(2,'Sa',24),(2,'Su',30),
		(4,'Tu',9),(4,'We',9),(4,'Th',9),(4,'Fr',18),(4,'Sa',20),(4,'Su',35)`); err != nil {
		t.Fatal(err)
	}
	const hpct = "SELECT store, Hpct(salesAmt BY dweek) FROM daily GROUP BY store"
	db.SetLimits(Limits{MaxPivotColumns: 3})
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"Query", func() error { _, err := db.Query(hpct); return err }},
		{"EXPLAIN", func() error { _, err := db.Query("EXPLAIN " + hpct); return err }},
		{"Explain", func() error { _, err := db.Explain(hpct); return err }},
	} {
		var coded interface{ Code() string }
		if err := c.run(); !errors.As(err, &coded) || coded.Code() != diag.CodePivotLimit {
			t.Errorf("%s of a 7-column Hpct under MaxPivotColumns=3: err = %v, want %s", c.name, err, diag.CodePivotLimit)
		}
	}

	db.SetLimits(Limits{})
	db.AutoStrategy(true)
	for _, sql := range []string{
		hpct,
		"SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city",
		"SELECT store, sum(salesAmt BY dweek) FROM daily GROUP BY store",
	} {
		script, err := db.Explain(sql)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := db.Query("EXPLAIN " + sql)
		if err != nil {
			t.Fatal(err)
		}
		var got, want []string
		for _, line := range strings.Split(strings.TrimRight(script, "\n"), "\n") {
			got = append(got, normalizeExplain(line))
		}
		for _, r := range rows.Data {
			want = append(want, normalizeExplain(r[0].(string)))
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: Explain renders\n%s\nthe EXPLAIN statement\n%s", sql, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
	const plain = "SELECT state, sum(salesAmt) FROM sales GROUP BY state"
	if script, err := db.Explain(plain); err != nil || script != "-- final result\n"+plain+";\n" {
		t.Errorf("Explain of a standard query = %q, %v; want the query itself", script, err)
	}
}

// TestExplainAnalyzeShowsCacheLookups: with the summary cache on, the
// statements a cache lookup runs while the plan is generated render under
// the statement's plan span, ahead of the plan's execution trace; a plan
// whose summaries the cache reuses runs no lookup statement.
func TestExplainAnalyzeShowsCacheLookups(t *testing.T) {
	db := demoDB(t)
	db.EnableSummaryCache(true)
	defer db.FlushSummaries()
	const q = "EXPLAIN ANALYZE SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city"
	render := func() string {
		t.Helper()
		rows, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, r := range rows.Data {
			lines = append(lines, normalizeExplain(r[0].(string)))
		}
		return strings.Join(lines, "\n")
	}
	cold := render()
	for _, want := range []string{
		"plan (DUR)\n  cache: build shared Fk summary pct_fk_N (DUR)\n",
		"    statement (DUR) out=4 sql=INSERT INTO pct_fk_N SELECT state, city, sum(salesAmt) FROM sales GROUP BY state, city\n",
		"  cache: build shared Fj summary pct_fj_N (DUR)\n",
		"\nplan vertical-percentage (DUR)",
	} {
		if !strings.Contains(cold, want) {
			t.Errorf("cold EXPLAIN ANALYZE lacks %q:\n%s", want, cold)
		}
	}
	if warm := render(); !strings.HasPrefix(warm, "plan vertical-percentage (DUR)") {
		t.Errorf("warm EXPLAIN ANALYZE ran cache lookup statements:\n%s", warm)
	}
}

// TestExplainAnalyzeShowsAdvisorFeedback: under AutoStrategy the advisor's
// feedback scan — SELECT DISTINCT over the fine group D1..Dk, which sizes Fk
// — is a statement generated for the query, so EXPLAIN ANALYZE renders it
// under the statement's plan span, beside the layout's feedback over the BY
// columns alone.
func TestExplainAnalyzeShowsAdvisorFeedback(t *testing.T) {
	db := demoDB(t)
	if _, err := db.Exec(`CREATE TABLE daily (store INTEGER, dweek VARCHAR, salesAmt INTEGER);
		INSERT INTO daily VALUES (2,'Mo',7),(2,'Tu',6),(4,'Tu',9),(4,'We',9)`); err != nil {
		t.Fatal(err)
	}
	db.AutoStrategy(true)
	rows, err := db.Query("EXPLAIN ANALYZE SELECT store, Hpct(salesAmt BY dweek) FROM daily GROUP BY store")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, r := range rows.Data {
		lines = append(lines, normalizeExplain(r[0].(string)))
	}
	got := strings.Join(lines, "\n")
	for _, want := range []string{
		"plan (DUR)\n  feedback: distinct store, dweek (DUR)\n",
		"    statement (DUR) out=4 sql=SELECT DISTINCT store, dweek FROM daily ORDER BY store, dweek\n",
		"  feedback: distinct dweek (DUR)\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("EXPLAIN ANALYZE under AutoStrategy lacks %q:\n%s", want, got)
		}
	}
}
