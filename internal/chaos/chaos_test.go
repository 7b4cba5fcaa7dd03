// Lifecycle chaos suite: every fault point is driven through the public API
// with an injected error, panic, and delay, asserting the robustness
// contract each time — a typed error (never a crash), no leaked goroutines,
// base tables untouched, temporary tables cleaned up, and every trace span
// closed. Run with -race; the CI chaos shard does.
package chaos_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/diag"
	"repro/internal/leakcheck"
	"repro/pctagg"
)

var errInjected = errors.New("chaos: injected failure")

// chaosDB loads the paper's demo table. Parallelism 4 forces the
// partitioned paths even on the tiny fixture, so worker fault points are
// reachable.
func chaosDB(t *testing.T) *pctagg.DB {
	t.Helper()
	db := pctagg.Open()
	db.SetParallelism(4)
	if _, err := db.Exec(`CREATE TABLE sales (RID INTEGER, state VARCHAR, city VARCHAR, salesAmt INTEGER);
		INSERT INTO sales VALUES
		(1,'CA','San Francisco',13),(2,'CA','San Francisco',3),(3,'CA','San Francisco',67),
		(4,'CA','Los Angeles',23),(5,'TX','Houston',5),(6,'TX','Houston',35),
		(7,'TX','Houston',10),(8,'TX','Houston',14),(9,'TX','Dallas',53),(10,'TX','Dallas',32)`); err != nil {
		t.Fatal(err)
	}
	return db
}

// scenario routes execution through one fault point.
type scenario struct {
	point string
	// sql is run via QueryTracedCtx — or, with setup set, via ExecCtx: a DML
	// statement against sales as setup (an index, say) left it.
	sql, setup string
	// fault tweaks beyond the kind (worker targeting, After skips).
	arm func(f *chaos.Fault)
}

var scenarios = []scenario{
	{
		point: chaos.JoinBuild,
		sql:   "SELECT a.state, b.city FROM sales a, sales b WHERE a.RID = b.RID",
	},
	{
		point: chaos.AggWorker,
		sql:   "SELECT state, sum(salesAmt) FROM sales GROUP BY state",
		arm:   func(f *chaos.Fault) { f.Worker = 2 }, // target worker 2/4 specifically
	},
	{
		point: chaos.AggMerge,
		sql:   "SELECT state, sum(salesAmt) FROM sales GROUP BY state",
	},
	{
		point: chaos.InsertSink,
		sql:   "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city",
		arm:   func(f *chaos.Fault) { f.After = 2 }, // fail on the 3rd staged row, mid-write
	},
	{
		// Six rows, two cells each, one of them an index key: the fault lands
		// between the two cells of the second row.
		point: chaos.UpdateApply,
		setup: "CREATE INDEX sales_city ON sales (city)",
		sql:   "UPDATE sales SET salesAmt = salesAmt + 1, city = 'Austin' WHERE state = 'TX'",
		arm:   func(f *chaos.Fault) { f.After = 3 },
	},
}

// salesState renders everything a failed statement must leave alone: the
// rows of sales in storage order, its epoch, and what a join through each
// index finds for each row's key.
func salesState(t *testing.T, db *pctagg.DB) string {
	t.Helper()
	tab, err := db.Engine().Catalog().Get("sales")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "epoch %d\n", tab.Epoch())
	for r := 0; r < tab.NumRows(); r++ {
		fmt.Fprintln(&sb, tab.Row(r, nil))
	}
	for _, ix := range tab.Indexes() {
		// A join through the index: each row's key beside the rows holding
		// it, ascending, as the index finds them.
		rows, err := db.Query(fmt.Sprintf("SELECT a.%[1]s, b.RID FROM sales a, sales b WHERE a.%[1]s = b.%[1]s", ix.Columns()[0]))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%s %v\n", ix.Name(), rows.Data)
	}
	return sb.String()
}

func metricValue(t *testing.T, db *pctagg.DB, name string) float64 {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal([]byte(db.MetricsJSON()), &m); err != nil {
		t.Fatalf("MetricsJSON: %v", err)
	}
	raw, ok := m[name]
	if !ok {
		return 0
	}
	var v float64
	if err := json.Unmarshal(raw, &v); err != nil {
		return 0
	}
	return v
}

// runScenario executes one (point, fault-kind) cell and asserts the
// robustness contract.
func runScenario(t *testing.T, sc scenario, kind string) {
	defer leakcheck.Check(t)()
	db := chaosDB(t)
	if sc.setup != "" {
		if _, err := db.Exec(sc.setup); err != nil {
			t.Fatal(err)
		}
	}
	baseTables, before := strings.Join(db.Tables(), ","), salesState(t, db)

	f := chaos.Fault{}
	switch kind {
	case "error":
		f.Err = errInjected
	case "panic":
		f.Panic = "chaos-panic"
	case "delay":
		f.Delay = 20 * time.Millisecond
	}
	if sc.arm != nil {
		sc.arm(&f)
	}
	panicsBefore := metricValue(t, db, "engine.panics")
	chaos.Enable()
	defer chaos.Disable()
	chaos.Arm(sc.point, f)

	var rows *pctagg.Rows
	var root *pctagg.Span
	var err error
	if sc.setup == "" {
		rows, root, err = db.QueryTracedCtx(context.Background(), sc.sql)
	} else {
		_, err = db.ExecCtx(context.Background(), sc.sql)
	}
	fired := chaos.Fired(sc.point)
	chaos.Disable()

	if fired == 0 {
		t.Fatalf("fault point %s never fired: the call site is detached from this scenario", sc.point)
	}

	switch kind {
	case "error":
		if err == nil || !strings.Contains(err.Error(), "injected") {
			t.Fatalf("err = %v, want the injected error", err)
		}
	case "panic":
		if err == nil {
			t.Fatal("panic was not contained into an error")
		}
		var coded interface{ Code() string }
		if !errors.As(err, &coded) || coded.Code() != diag.CodePanic {
			t.Fatalf("err = %v, want a typed %s panic error", err, diag.CodePanic)
		}
		if !strings.Contains(err.Error(), "chaos-panic") {
			t.Errorf("contained panic lost its value: %v", err)
		}
		if after := metricValue(t, db, "engine.panics"); after <= panicsBefore {
			t.Errorf("engine.panics = %v, want > %v", after, panicsBefore)
		}
	case "delay":
		if err != nil {
			t.Fatalf("pure-latency fault failed the query: %v", err)
		}
		if sc.setup == "" && len(rows.Data) == 0 {
			t.Error("delayed query returned no rows")
		}
	}
	// A failed statement leaves every cell, every index and the epoch of the
	// base table as it found them; a DML statement that was only delayed commits.
	if after := salesState(t, db); (after == before) != (kind != "delay" || sc.setup == "") {
		t.Errorf("sales after %s/%s:\n%s\nbefore:\n%s", sc.point, kind, after, before)
	}

	// Span tree closed on every outcome, including mid-worker failures.
	if root != nil {
		if un := root.Unclosed(); len(un) > 0 {
			names := make([]string, len(un))
			for i, s := range un {
				names[i] = s.Name
			}
			t.Errorf("unclosed spans after %s/%s: %v\n%s", sc.point, kind, names, root.Format())
		}
	}

	// Temporary tables cleaned up; base tables untouched.
	if got := strings.Join(db.Tables(), ","); got != baseTables {
		t.Errorf("tables after fault = %q, want %q (temp tables must be dropped)", got, baseTables)
	}
	cnt, err := db.Query("SELECT count(*) FROM sales")
	if err != nil {
		t.Fatalf("post-fault count: %v", err)
	}
	if n := cnt.Data[0][0].(int64); n != 10 {
		t.Errorf("sales has %d rows after fault, want 10 (base table must be untouched)", n)
	}

	// The engine must be fully usable after the fault.
	if _, err := db.Query("SELECT state, sum(salesAmt) FROM sales GROUP BY state"); err != nil {
		t.Errorf("query after fault: %v", err)
	}
}

// TestFaultMatrix drives every fault point through error, panic, and delay
// injection — the acceptance matrix of the robustness contract.
func TestFaultMatrix(t *testing.T) {
	for _, sc := range scenarios {
		for _, kind := range []string{"error", "panic", "delay"} {
			sc, kind := sc, kind
			t.Run(sc.point+"/"+kind, func(t *testing.T) {
				runScenario(t, sc, kind)
			})
		}
	}
}

// TestInsertSinkRollsBackStagedRows pins the savepoint contract directly: a
// fault on the Nth staged row leaves the INSERT target at its pre-statement
// contents, not partially written.
func TestInsertSinkRollsBackStagedRows(t *testing.T) {
	defer leakcheck.Check(t)()
	db := chaosDB(t)
	if _, err := db.Exec(`CREATE TABLE dst (state VARCHAR, total INTEGER); INSERT INTO dst VALUES ('seed', 1)`); err != nil {
		t.Fatal(err)
	}
	chaos.Enable()
	defer chaos.Disable()
	chaos.Arm(chaos.InsertSink, chaos.Fault{Err: errInjected, After: 1})
	_, err := db.Exec("INSERT INTO dst SELECT state, sum(salesAmt) FROM sales GROUP BY state")
	chaos.Disable()
	if err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("err = %v, want the injected error", err)
	}
	rows, err := db.Query("SELECT state, total FROM dst")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0].(string) != "seed" {
		t.Errorf("dst = %v, want only the seed row (atomic rollback)", rows.Data)
	}
}

// TestUpdateStagingSwapAtomic pins the staging-then-swap contract for
// UPDATE: a mid-rewrite failure publishes nothing.
func TestUpdateStagingSwapAtomic(t *testing.T) {
	defer leakcheck.Check(t)()
	db := chaosDB(t)
	// MaxRows small enough to fail the staged rewrite partway through.
	db.SetLimits(pctagg.Limits{MaxRows: 4})
	_, err := db.Exec("UPDATE sales SET salesAmt = salesAmt + 1")
	db.SetLimits(pctagg.Limits{})
	if err == nil {
		t.Fatal("UPDATE under MaxRows=4 succeeded, want limit error")
	}
	rows, qerr := db.Query("SELECT sum(salesAmt) FROM sales")
	if qerr != nil {
		t.Fatal(qerr)
	}
	if got := rows.Data[0][0].(int64); got != 255 {
		t.Errorf("sum(salesAmt) = %d after failed UPDATE, want 255 (unchanged)", got)
	}
}

// lateCancelCtx reports cancellation from its after-th Err call on: the
// statement starts and is cancelled a fixed number of governor checks in.
type lateCancelCtx struct {
	context.Context
	calls, after int
}

func (c *lateCancelCtx) Err() error {
	if c.calls++; c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestPointUpdateCancelledMidScanAtomic is the in-place twin: a point UPDATE
// whose context is cancelled while the selection still scans fails with the
// typed cancellation and has written nothing — same table object, same epoch,
// same cells.
func TestPointUpdateCancelledMidScanAtomic(t *testing.T) {
	defer leakcheck.Check(t)()
	db := chaosDB(t)
	rows := make([][]any, 5000)
	for i := range rows {
		rows[i] = []any{100 + i, "NV", "Reno", 1}
	}
	if err := db.InsertRows("sales", rows); err != nil {
		t.Fatal(err)
	}
	before := salesState(t, db)
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := db.ExecCtx(&lateCancelCtx{Context: live, after: 3}, "UPDATE sales SET salesAmt = 0 WHERE RID = 5099")
	var coded interface{ Code() string }
	if !errors.As(err, &coded) || coded.Code() != diag.CodeCancelled {
		t.Fatalf("err = %v, want a typed %s cancellation", err, diag.CodeCancelled)
	}
	if after := salesState(t, db); after != before {
		t.Error("a point UPDATE cancelled mid-scan changed the table")
	}
	if n, err := db.Exec("UPDATE sales SET salesAmt = 0 WHERE RID = 5099"); err != nil || n != 1 {
		t.Errorf("the same UPDATE uncancelled: %d rows, %v", n, err)
	}
}

// TestPointsRegistryClosed keeps the documented fault-point catalog and the
// registry in sync.
func TestPointsRegistryClosed(t *testing.T) {
	want := map[string]bool{
		chaos.JoinBuild:      true,
		chaos.AggWorker:      true,
		chaos.AggMerge:       true,
		chaos.InsertSink:     true,
		chaos.UpdateApply:    true,
		chaos.CacheDelta:     true,
		chaos.CacheMerge:     true,
		chaos.ServerAccept:   true,
		chaos.ServerAdmit:    true,
		chaos.ServerDispatch: true,
	}
	got := chaos.Points()
	if len(got) != len(want) {
		t.Fatalf("Points() = %v, want %d points", got, len(want))
	}
	for _, p := range got {
		if !want[p] {
			t.Errorf("unexpected fault point %q", p)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Arm on an unknown point did not panic")
		}
	}()
	chaos.Arm("engine.no.such.point", chaos.Fault{}) // pctvet:ok negative test: Arm must reject unknown point names
}
