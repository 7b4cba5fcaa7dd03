package pctagg

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/leakcheck"
	"repro/internal/obs"
)

// Tests of the one statement lifecycle: a percentage query is one engine
// statement, whose plan runs as statements nested in it.

const vpctByCity = "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city"

// TestTimeoutBoundsWholeQuery: Limits.Timeout is the deadline of the query the
// caller sent, not of each generated step. A delay on every staged row keeps
// each step well under the timeout while the plan as a whole runs well over
// it; the query fails with PCT201 and leaves no temp table behind.
func TestTimeoutBoundsWholeQuery(t *testing.T) {
	defer leakcheck.Check(t)()
	db := demoDB(t)
	if err := db.EnableIntrospection(IntrospectionConfig{}); err != nil {
		t.Fatal(err)
	}
	// Fk, Fj and FV stage 4, 2 and 4 rows: 80 ms for the longest step, 200 ms
	// for the plan.
	const perRow, timeout = 20 * time.Millisecond, 140 * time.Millisecond
	db.SetLimits(Limits{Timeout: timeout})
	chaos.Enable()
	defer chaos.Disable()
	chaos.Arm(chaos.InsertSink, chaos.Fault{Delay: perRow})
	_, err := db.Query(vpctByCity)
	if code := diag.CodeOf(err); code != diag.CodeDeadline {
		t.Fatalf("err = %v (code %q), want %s: the timeout must bound the whole query", err, code, diag.CodeDeadline)
	}
	if tables := db.Tables(); len(tables) != 1 {
		t.Errorf("timed-out query left temp tables: %v", tables)
	}
	checkQueryDeadline(t, db.Engine().FlightRecords(), timeout)
}

// checkQueryDeadline checks from the flight records of a timed-out percentage
// query that its own deadline stopped it, however slow the machine: a
// generated INSERT finished before the deadline fired, and the generated
// statement the deadline stopped had run for less than the timeout itself, so
// no per-statement deadline could have fired in it.
func checkQueryDeadline(t *testing.T, recs []obs.FlightRecord, timeout time.Duration) {
	t.Helper()
	finished, stopped := 0, 0
	for _, r := range recs {
		switch {
		case strings.Contains(r.Query, "vpct("): // the query itself
		case r.ErrCode == "" && strings.HasPrefix(r.Query, "INSERT"):
			finished++
		case r.ErrCode == diag.CodeDeadline && time.Duration(r.DurNs) < timeout:
			stopped++
		}
	}
	if finished == 0 || stopped != 1 {
		var sb strings.Builder
		for _, r := range recs {
			fmt.Fprintf(&sb, "\n  %s %q %s", time.Duration(r.DurNs), r.ErrCode, r.Query)
		}
		t.Errorf("%d generated INSERTs finished and %d statements stopped under %s, want ≥ 1 and 1:%s", finished, stopped, timeout, sb.String())
	}
}

// TestIntrospectGeneratedStatementsAreNested: statements a plan generates are
// top = 0 however the plan runs — DB.Explain's planning scan, a second
// planner driven directly on the DB's engine — so the only top = 1 rows are
// the statements a caller sent. Cleanup and FlushSummaries drop tables by
// name and run no statement at all.
func TestIntrospectGeneratedStatementsAreNested(t *testing.T) {
	db := demoDB(t)
	db.EnableSummaryCache(true)
	if err := db.EnableIntrospection(IntrospectionConfig{}); err != nil {
		t.Fatal(err)
	}
	const hpct = "SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state"
	if _, err := db.Query(vpctByCity); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Explain(hpct); err != nil {
		t.Fatal(err)
	}
	db.FlushSummaries()
	p := core.NewPlanner(db.Engine())
	plan, err := p.PlanSQL(hpct, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ExecuteStepsCtx(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	p.CleanupPlan(plan)
	if _, _, err := p.ExecuteTracedCtx(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query("SELECT query FROM pct_stat_statements WHERE top = 1")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(rows.Data), "[[SELECT state, city, vpct(salesAmt BY city) FROM sales GROUP BY state, city]]"; got != want {
		t.Errorf("top = 1 rows = %s, want only the query sent, %s", got, want)
	}
	if n := one(t, db, "SELECT COUNT(*) FROM pct_stat_statements WHERE top = 0 AND query LIKE 'CREATE TABLE%'").(int64); n == 0 {
		t.Error("the generated CREATEs are not recorded as nested statements")
	}
}

// TestIntrospectUnparsedQuery: text sent to Query that does not parse — empty
// text included — still ends as a statement: a top = 1 row with PCT000 and a
// slow-query line.
func TestIntrospectUnparsedQuery(t *testing.T) {
	db := demoDB(t)
	if err := db.EnableIntrospection(IntrospectionConfig{}); err != nil {
		t.Fatal(err)
	}
	var slow bytes.Buffer
	db.SetSlowQueryLog(&slow, 0)
	for _, q := range []string{"", "SELEC state FROM sales"} {
		if _, err := db.Query(q); diag.CodeOf(err) != diag.CodeSyntax {
			t.Fatalf("Query(%q) err = %v, want a syntax error", q, err)
		}
	}
	db.SetSlowQueryLog(nil, 0)
	if got := one(t, db, "SELECT COUNT(*) FROM pct_stat_statements WHERE top = 1 AND error_codes = 'PCT000:1'"); got != int64(2) {
		t.Errorf("%v top = 1 rows with PCT000, want 2", got)
	}
	if !strings.Contains(slow.String(), "): SELEC state FROM sales\n") {
		t.Errorf("slow-query log has no line for the syntax error:\n%s", slow.String())
	}
}

// TestIntrospectPercentageQueryIsOneStatement: a percentage query through
// Query is one top = 1 row of pct_stat_statements carrying its summary-cache
// hits and misses, and one flight record per run; its generated statements
// are top = 0.
func TestIntrospectPercentageQueryIsOneStatement(t *testing.T) {
	db := paperDB(t)
	db.EnableSummaryCache(true)
	if err := db.EnableIntrospection(IntrospectionConfig{}); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT gender, Vpct(salary) FROM employee GROUP BY gender"
	for i := 0; i < 2; i++ {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := db.Query("SELECT query, calls, cache_hits, cache_misses FROM pct_stat_statements WHERE top = 1")
	if err != nil {
		t.Fatal(err)
	}
	cs := db.SummaryCacheStats()
	want := fmt.Sprint([][]any{{"SELECT gender, vpct(salary) FROM employee GROUP BY gender", int64(2), cs.Hits, cs.Misses}})
	if got := fmt.Sprint(rows.Data); got != want || cs.Hits == 0 || cs.Misses == 0 {
		t.Errorf("top-level rows = %s, want %s with hits and misses", got, want)
	}
	if n := one(t, db, "SELECT COUNT(*) FROM pct_stat_statements WHERE top = 0").(int64); n == 0 {
		t.Error("the generated statements are not recorded as nested ones")
	}
	flights := 0
	for _, r := range db.Engine().FlightRecords() {
		if r.Query == rows.Data[0][0] {
			flights++
		}
	}
	if flights != 2 {
		t.Errorf("%d flight records of the query, want one a run", flights)
	}
}

// TestIntrospectPercentageQueryObservedWhileRunning: while its steps run, the
// percentage query itself is in pct_stat_activity, and the slow-query log
// writes a line for it.
func TestIntrospectPercentageQueryObservedWhileRunning(t *testing.T) {
	defer leakcheck.Check(t)()
	db := demoDB(t)
	if err := db.EnableIntrospection(IntrospectionConfig{}); err != nil {
		t.Fatal(err)
	}
	var slow bytes.Buffer
	db.SetSlowQueryLog(&slow, 50*time.Millisecond)
	chaos.Enable()
	defer chaos.Disable()
	chaos.Arm(chaos.InsertSink, chaos.Fault{Delay: 10 * time.Millisecond}) // 100 ms over 10 staged rows
	done := make(chan error, 1)
	go func() {
		_, err := db.Query(vpctByCity)
		done <- err
	}()
	seen := false
	for !seen {
		select {
		case err := <-done:
			t.Fatalf("query finished (err %v) before it was seen in pct_stat_activity", err)
		default:
		}
		rows, err := db.Query("SELECT query FROM pct_stat_activity")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows.Data {
			seen = seen || strings.Contains(r[0].(string), "vpct(salesAmt BY city)")
		}
		time.Sleep(time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(slow.String(), "): SELECT state, city, vpct(salesAmt BY city) FROM sales") {
		t.Errorf("slow-query log has no line for the percentage query:\n%s", slow.String())
	}
}

// TestIntrospectPlainStatementsAreTopLevel: a plain SELECT through Query and
// DML through Exec are each exactly one top = 1 row.
func TestIntrospectPlainStatementsAreTopLevel(t *testing.T) {
	db := demoDB(t)
	if err := db.EnableIntrospection(IntrospectionConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT count(*) FROM sales"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("UPDATE sales SET salesAmt = 14 WHERE RID = 1"); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query("SELECT query, top, calls FROM pct_stat_statements ORDER BY query")
	if err != nil {
		t.Fatal(err)
	}
	want := "[[SELECT count(*) FROM sales 1 1] [UPDATE sales SET salesAmt = ? WHERE (RID = ?) 1 1]]"
	if got := fmt.Sprint(rows.Data); got != want {
		t.Errorf("pct_stat_statements = %s, want %s", got, want)
	}
}

// TestEngineExecSQLRunsPercentageQueries: on a DB's engine, a percentage query
// sent straight to the engine returns what Query returns.
func TestEngineExecSQLRunsPercentageQueries(t *testing.T) {
	db := demoDB(t)
	for _, q := range []string{
		vpctByCity,
		"SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state",
		"SELECT state, sum(salesAmt BY city) FROM sales GROUP BY state",
		"SELECT state, city, sum(salesAmt) FROM sales GROUP BY ROLLUP(state, city)",
	} {
		want, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Engine().ExecSQL(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got := make([][]any, len(res.Rows))
		for i, row := range res.Rows {
			for _, v := range row {
				got[i] = append(got[i], fromValue(v))
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want.Data) || fmt.Sprint(res.Columns) != fmt.Sprint(want.Columns) {
			t.Errorf("%s: engine returned %v %v, Query %v %v", q, res.Columns, got, want.Columns, want.Data)
		}
	}
}

// TestQueryTracedOneStatement: the trace of a percentage query is the trace
// of one statement — query → parse, statement → plan, plan <class>.
func TestQueryTracedOneStatement(t *testing.T) {
	db := demoDB(t)
	_, root, err := db.QueryTraced(vpctByCity)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, c := range root.Children {
		names = append(names, c.Name)
	}
	if len(root.Children) == 2 {
		for _, c := range root.Children[1].Children {
			names = append(names, c.Name)
		}
	}
	if got := strings.Join(names, ", "); got != "parse, statement, plan, plan vertical-percentage" {
		t.Errorf("trace levels = %s, want parse, statement, plan, plan vertical-percentage:\n%s", got, root.Format())
	}
}
