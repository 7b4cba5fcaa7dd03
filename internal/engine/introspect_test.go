package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/storage"
)

func newIntroEngine(t *testing.T) *Engine {
	t.Helper()
	e := newTestEngine(t)
	e.EnableIntrospection(IntrospectionConfig{})
	return e
}

func TestIntrospectStatStatements(t *testing.T) {
	e := newIntroEngine(t)
	// Three executions of the same statement shape, different literals.
	for _, amt := range []int{10, 20, 30} {
		mustExec(t, e, fmt.Sprintf("SELECT city FROM sales WHERE salesAmt > %d", amt))
	}
	mustExec(t, e, "SELECT state FROM sales GROUP BY state")

	r := mustExec(t, e, "SELECT query, calls, rows_scanned FROM pct_stat_statements WHERE query = 'SELECT city FROM sales WHERE (salesAmt > ?)'")
	if len(r.Rows) != 1 {
		t.Fatalf("fingerprint rows = %d, want 1 collapsed entry: %v", len(r.Rows), r.Rows)
	}
	if calls := r.Rows[0][1].Int(); calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	// Each execution scanned the 10-row sales table in full.
	if scanned := r.Rows[0][2].Int(); scanned != 30 {
		t.Errorf("rows_scanned = %d, want 30", scanned)
	}

	// The full dialect composes over the virtual relation.
	r = mustExec(t, e, "SELECT query, calls FROM pct_stat_statements WHERE calls >= 1 ORDER BY calls DESC")
	if len(r.Rows) < 2 {
		t.Fatalf("expected at least 2 recorded statements, got %d", len(r.Rows))
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i][1].Int() > r.Rows[i-1][1].Int() {
			t.Errorf("ORDER BY calls DESC violated at row %d", i)
		}
	}
}

func TestIntrospectSelfObservationGuard(t *testing.T) {
	e := newIntroEngine(t)
	mustExec(t, e, "SELECT * FROM sales")

	r1 := mustExec(t, e, "SELECT fingerprint, query, calls FROM pct_stat_statements")
	r2 := mustExec(t, e, "SELECT fingerprint, query, calls FROM pct_stat_statements")
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("introspection query grew the stats table: %d then %d rows", len(r1.Rows), len(r2.Rows))
	}
	for i := range r1.Rows {
		for j := range r1.Rows[i] {
			if r1.Rows[i][j].String() != r2.Rows[i][j].String() {
				t.Errorf("row %d col %d changed between identical introspection queries: %v vs %v",
					i, j, r1.Rows[i][j], r2.Rows[i][j])
			}
		}
	}
	for _, row := range r1.Rows {
		if strings.Contains(row[1].Str(), "pct_stat_statements") {
			t.Errorf("introspection query observed itself: %v", row)
		}
	}
	// Joins that touch a virtual relation are excluded too.
	mustExec(t, e, "SELECT s.query FROM pct_stat_statements s, sales t WHERE s.calls > 0 AND t.RID = 1")
	r3 := mustExec(t, e, "SELECT query FROM pct_stat_statements")
	for _, row := range r3.Rows {
		if strings.Contains(row[0].Str(), "pct_stat_statements") {
			t.Errorf("join through virtual relation observed itself: %v", row)
		}
	}
}

func TestIntrospectVirtualReadOnly(t *testing.T) {
	e := newIntroEngine(t)
	for _, sql := range []string{
		"INSERT INTO pct_stat_statements VALUES ('x')",
		"UPDATE pct_stat_statements SET calls = 0",
		"DELETE FROM pct_stat_statements",
		"DROP TABLE pct_stat_statements",
		"DROP TABLE IF EXISTS pct_metrics",
		"CREATE TABLE pct_trace_recent (a INTEGER)",
		"CREATE INDEX ix ON pct_stat_activity (sid)",
	} {
		wantErr(t, e, sql, "read-only system relation")
	}
	// The relations are still there and scannable afterwards.
	mustExec(t, e, "SELECT * FROM pct_stat_statements")
	mustExec(t, e, "SELECT * FROM pct_metrics")
}

func TestIntrospectErrorCodes(t *testing.T) {
	e := newIntroEngine(t)
	if _, err := e.ExecSQL("SELECT * FROM no_such_table"); err == nil {
		t.Fatal("expected unknown-table error")
	}
	r := mustExec(t, e, "SELECT errors, error_codes FROM pct_stat_statements WHERE query = 'SELECT * FROM no_such_table'")
	if len(r.Rows) != 1 {
		t.Fatalf("error statement not recorded: %v", r.Rows)
	}
	if r.Rows[0][0].Int() != 1 {
		t.Errorf("errors = %d, want 1", r.Rows[0][0].Int())
	}
	if codes := r.Rows[0][1].Str(); codes == "" {
		t.Errorf("error_codes empty, want a code tally")
	}
}

func TestIntrospectTraceRecent(t *testing.T) {
	e := newIntroEngine(t)
	mustExec(t, e, "SELECT state, SUM(salesAmt) FROM sales GROUP BY state")
	r := mustExec(t, e, "SELECT seq, query, stages, rows_out FROM pct_trace_recent ORDER BY seq DESC")
	if len(r.Rows) == 0 {
		t.Fatal("flight recorder empty")
	}
	top := r.Rows[0]
	if !strings.Contains(top[1].Str(), "GROUP BY state") {
		t.Errorf("latest flight record query = %q, want the GROUP BY", top[1].Str())
	}
	// Stage totals render even without a trace sink attached.
	if stages := top[2].Str(); !strings.Contains(stages, "aggregate=") {
		t.Errorf("stages = %q, want an aggregate stage", stages)
	}
	if top[3].Int() != 2 {
		t.Errorf("rows_out = %d, want 2 groups", top[3].Int())
	}
}

func TestIntrospectMetricsTable(t *testing.T) {
	e := newIntroEngine(t)
	mustExec(t, e, "SELECT * FROM sales")
	r := mustExec(t, e, "SELECT name, kind, value FROM pct_metrics WHERE name = 'engine.statements'")
	if len(r.Rows) != 1 {
		t.Fatalf("pct_metrics lacks engine.statements: %v", r.Rows)
	}
	if r.Rows[0][1].Str() != "counter" || r.Rows[0][2].Int() <= 0 {
		t.Errorf("engine.statements = %v/%v, want counter > 0", r.Rows[0][1], r.Rows[0][2])
	}
	r = mustExec(t, e, "SELECT count, p50_ns, p99_ns FROM pct_metrics WHERE name = 'engine.statement.ns'")
	if len(r.Rows) != 1 || r.Rows[0][0].Int() <= 0 {
		t.Fatalf("histogram row missing or empty: %v", r.Rows)
	}
	if r.Rows[0][1].Int() > r.Rows[0][2].Int() {
		t.Errorf("p50 %d > p99 %d", r.Rows[0][1].Int(), r.Rows[0][2].Int())
	}
}

func TestIntrospectActivityTable(t *testing.T) {
	e := newIntroEngine(t)
	in := e.intro.Load()
	in.activity.Begin(99, "SELECT pending", 7, time.Now().Add(-time.Second), func() (int64, int64, int64) {
		return 1000, 10, 4096
	})
	defer in.activity.End(99)
	r := mustExec(t, e, "SELECT sid, query, state, rows_scanned, bytes FROM pct_stat_activity WHERE sid = 99")
	if len(r.Rows) != 1 {
		t.Fatalf("activity row missing: %v", r.Rows)
	}
	row := r.Rows[0]
	if row[1].Str() != "SELECT pending" || row[2].Str() != "running" {
		t.Errorf("activity row = %v", row)
	}
	if row[3].Int() != 1000 || row[4].Int() != 4096 {
		t.Errorf("progress = %d/%d, want 1000/4096", row[3].Int(), row[4].Int())
	}
}

func TestIntrospectLiveActivity(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE big (k INTEGER, v INTEGER)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO big VALUES ")
	for i := 0; i < 20000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, %d)", i%997, i)
	}
	mustExec(t, e, sb.String())
	e.EnableIntrospection(IntrospectionConfig{})

	done := make(chan struct{})
	go func() {
		defer close(done)
		// Self-join keeps the statement busy long enough to observe.
		_, _ = e.ExecSQL("SELECT COUNT(*) FROM big a, big b WHERE a.k = b.k AND a.v < 50")
	}()
	var seen bool
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if acts := e.ActiveStatements(); len(acts) > 0 {
			seen = true
			if acts[0].Query == "" {
				t.Errorf("active statement lacks query text: %+v", acts[0])
			}
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	<-done
	if !seen {
		t.Skip("statement finished before activity was observable (machine too fast)")
	}
	if n := len(e.ActiveStatements()); n != 0 {
		t.Errorf("activity not drained after completion: %d", n)
	}
}

func TestIntrospectParallelFlag(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE big (k INTEGER, v INTEGER)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO big VALUES ")
	for i := 0; i < 20000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, %d)", i%13, i)
	}
	mustExec(t, e, sb.String())
	e.EnableIntrospection(IntrospectionConfig{})
	if _, err := e.ExecSQLCtxP(context.Background(), "SELECT k, SUM(v) FROM big GROUP BY k", 4); err != nil {
		t.Fatal(err)
	}
	r := mustExec(t, e, "SELECT parallel FROM pct_stat_statements WHERE query = 'SELECT k, sum(v) FROM big GROUP BY k'")
	if len(r.Rows) != 1 || r.Rows[0][0].Int() != 1 {
		t.Errorf("parallel executions = %v, want 1", r.Rows)
	}
}

func TestIntrospectDisableReenable(t *testing.T) {
	e := newIntroEngine(t)
	mustExec(t, e, "SELECT * FROM sales")
	if !e.IntrospectionEnabled() {
		t.Fatal("introspection should be on")
	}
	e.DisableIntrospection()
	if e.IntrospectionEnabled() {
		t.Fatal("introspection should be off")
	}
	wantErr(t, e, "SELECT * FROM pct_stat_statements", "")
	// Statements run fine with recording off.
	mustExec(t, e, "SELECT * FROM sales")
	// Re-enabling starts a fresh slate.
	e.EnableIntrospection(IntrospectionConfig{})
	r := mustExec(t, e, "SELECT * FROM pct_stat_statements")
	if len(r.Rows) != 0 {
		t.Errorf("fresh introspection state has %d rows, want 0", len(r.Rows))
	}
}

func TestIntrospectRegisterVirtualCollision(t *testing.T) {
	e := newTestEngine(t)
	err := e.RegisterVirtual("sales", storage.Schema{{Name: "a", Type: storage.TypeInt}},
		func() (*storage.Table, error) { return nil, nil })
	if err == nil {
		t.Fatal("registering a virtual relation over a stored table must fail")
	}
}

func TestIntrospectSnapshotStability(t *testing.T) {
	// A scan sees one coherent snapshot even while new statements land.
	e := newIntroEngine(t)
	defer leakcheck.Check(t)()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_, _ = e.ExecSQL("SELECT COUNT(*) FROM sales")
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		r := mustExec(t, e, "SELECT calls, errors FROM pct_stat_statements")
		for _, row := range r.Rows {
			if row[0].Int() < row[1].Int() {
				t.Errorf("snapshot incoherent: errors %d > calls %d", row[1].Int(), row[0].Int())
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestIntrospectAggregateOverStats(t *testing.T) {
	// Aggregation composes over the introspection catalog: total calls by
	// statement shape.
	e := newIntroEngine(t)
	for i := 0; i < 3; i++ {
		mustExec(t, e, "SELECT city FROM sales")
	}
	mustExec(t, e, "SELECT state FROM sales")
	r := mustExec(t, e, "SELECT SUM(calls), COUNT(*) FROM pct_stat_statements")
	if len(r.Rows) != 1 {
		t.Fatalf("aggregate rows = %d: %v", len(r.Rows), r.Rows)
	}
	if sum := r.Rows[0][0].Int(); sum != 4 {
		t.Errorf("SUM(calls) = %d, want 4", sum)
	}
	if n := r.Rows[0][1].Int(); n != 2 {
		t.Errorf("COUNT(*) = %d, want 2 fingerprints", n)
	}
}
