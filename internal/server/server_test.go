// Black-box suite for the server front door: handshake, pipelined queries,
// cancellation, admission refusals (PCT210/PCT211), idle timeout (PCT213),
// and the pct_stat_sessions catalog — all through the wire client, all
// under leakcheck. Run with -race; the CI server shard does.
package server_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/diag"
	"repro/internal/leakcheck"
	"repro/internal/server"
	"repro/internal/workload"
	"repro/pctagg"
)

// demoDB opens a DB seeded with the demo tables.
func demoDB(t *testing.T) *pctagg.DB {
	t.Helper()
	db := pctagg.Open()
	if _, err := db.Exec(workload.DemoSQL); err != nil {
		t.Fatal(err)
	}
	return db
}

// startServer runs a server over db on an ephemeral port. Tests must defer
// srv.Close() themselves, after their leakcheck defer, so teardown happens
// before the leak check runs.
func startServer(t *testing.T, db *pctagg.DB, cfg server.Config) *server.Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	srv := server.New(db, cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	return srv
}

func dial(t *testing.T, srv *server.Server, tenant string) *server.Client {
	t.Helper()
	c, err := server.Dial(srv.Addr().String(), tenant)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestQueryOverWire(t *testing.T) {
	defer leakcheck.Check(t)()
	srv := startServer(t, demoDB(t), server.Config{})
	defer srv.Close()
	c := dial(t, srv, "alpha")
	defer c.Close()
	if c.SessionID == 0 {
		t.Fatal("hello did not assign a session ID")
	}
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping: %v", err)
	}

	res, err := c.Do(context.Background(), "SELECT state, Vpct(salesAmt BY city) AS pct, city FROM sales GROUP BY state, city")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || len(res.Columns) != 3 {
		t.Fatalf("rows=%d columns=%v", len(res.Rows), res.Columns)
	}
	// int64 grouping values and float64 percentages must survive the JSON
	// round trip with their Go types intact.
	sawFloat := false
	for _, row := range res.Rows {
		if _, ok := row[1].(float64); ok {
			sawFloat = true
		}
	}
	if !sawFloat {
		t.Errorf("no float64 percentage cell decoded: %v", res.Rows)
	}

	// DML over the wire, then read back.
	if _, err := c.Do(context.Background(), "CREATE TABLE t (x INTEGER)"); err != nil {
		t.Fatal(err)
	}
	aff, err := c.Do(context.Background(), "INSERT INTO t VALUES (1),(2),(3)")
	if err != nil {
		t.Fatal(err)
	}
	if aff.Affected != 3 {
		t.Fatalf("Affected = %d, want 3", aff.Affected)
	}
	cnt, err := c.Do(context.Background(), "SELECT count(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if n := cnt.Rows[0][0].(int64); n != 3 {
		t.Fatalf("count = %d, want 3", n)
	}

	// A SQL error is a wire error, not a dead session — and a syntax error
	// carries its code like every other coded failure.
	if _, err := c.Do(context.Background(), "SELECT nope FROM missing"); err == nil {
		t.Fatal("query against a missing table succeeded")
	}
	if _, err := c.Do(context.Background(), "SELEC 1"); diag.CodeOf(err) != diag.CodeSyntax {
		t.Fatalf("syntax error over the wire: err = %v, want code %s", err, diag.CodeSyntax)
	}
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("session unusable after a SQL error: %v", err)
	}
}

func TestPipelinedQueriesConcurrently(t *testing.T) {
	defer leakcheck.Check(t)()
	srv := startServer(t, demoDB(t), server.Config{
		DefaultTenant: server.TenantProfile{MaxConcurrent: 4, MaxQueue: 64},
	})
	defer srv.Close()
	c := dial(t, srv, "alpha")
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Do(context.Background(), "SELECT state, sum(salesAmt) FROM sales GROUP BY state")
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("pipelined query: %v", err)
		}
	}
}

func TestCancelStatementOverWire(t *testing.T) {
	defer leakcheck.Check(t)()
	srv := startServer(t, demoDB(t), server.Config{})
	defer srv.Close()
	gate := server.NewGate(srv)
	c := dial(t, srv, "alpha")
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.Do(ctx, "SELECT count(*) FROM sales")
		done <- err
	}()
	gate.WaitInFlight(t, 1)
	cancel()
	err := <-done
	if code := diag.CodeOf(err); code != diag.CodeCancelled {
		t.Fatalf("err = %v (code %q), want %s", err, code, diag.CodeCancelled)
	}
	// The session survives its cancelled statement.
	gate.Release()
	if _, err := c.Do(context.Background(), "SELECT count(*) FROM sales"); err != nil {
		t.Fatalf("session unusable after cancel: %v", err)
	}
}

func TestTenantSessionCapPCT211(t *testing.T) {
	defer leakcheck.Check(t)()
	srv := startServer(t, demoDB(t), server.Config{
		Tenants: []server.TenantProfile{{Name: "capped", MaxSessions: 1}},
	})
	defer srv.Close()
	first := dial(t, srv, "capped")
	defer first.Close()
	_, err := server.Dial(srv.Addr().String(), "capped")
	if err == nil {
		t.Fatal("second session for a MaxSessions=1 tenant connected")
	}
	if code := diag.CodeOf(err); code != diag.CodeTenantCap {
		t.Fatalf("err = %v (code %q), want %s", err, code, diag.CodeTenantCap)
	}
	var rem *server.RemoteError
	if !errors.As(err, &rem) || !rem.IsRetryable || rem.Backoff <= 0 {
		t.Fatalf("refusal not retryable with a backoff hint: %+v", err)
	}
	// Another tenant is unaffected.
	other := dial(t, srv, "other")
	defer other.Close()
	if err := other.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestQueueFullPCT210(t *testing.T) {
	defer leakcheck.Check(t)()
	srv := startServer(t, demoDB(t), server.Config{
		Tenants: []server.TenantProfile{{Name: "busy", MaxConcurrent: 1, MaxQueue: 1}},
	})
	defer srv.Close()
	gate := server.NewGate(srv)
	c := dial(t, srv, "busy")
	defer c.Close()

	slow := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), "SELECT count(*) FROM sales")
		slow <- err
	}()
	gate.WaitInFlight(t, 1)

	// Second statement queues (MaxQueue 1)...
	queued := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), "SELECT count(*) FROM daily")
		queued <- err
	}()
	gate.WaitQueued(t, 1)

	// ...so the third is shed with PCT210 and a backoff hint.
	_, err := c.Do(context.Background(), "SELECT count(*) FROM daily")
	if code := diag.CodeOf(err); code != diag.CodeQueueFull {
		t.Fatalf("err = %v (code %q), want %s", err, code, diag.CodeQueueFull)
	}
	var rem *server.RemoteError
	if !errors.As(err, &rem) || !rem.IsRetryable || rem.Backoff <= 0 {
		t.Fatalf("shed not retryable with a backoff hint: %+v", err)
	}

	gate.Release()
	if err := <-slow; err != nil {
		t.Fatalf("held statement: %v", err)
	}
	if err := <-queued; err != nil {
		t.Fatalf("queued statement: %v", err)
	}
}

func TestConcurrencyCapWithoutQueuePCT211(t *testing.T) {
	defer leakcheck.Check(t)()
	srv := startServer(t, demoDB(t), server.Config{
		Tenants: []server.TenantProfile{{Name: "noqueue", MaxConcurrent: 1, MaxQueue: 0}},
	})
	defer srv.Close()
	gate := server.NewGate(srv)
	c := dial(t, srv, "noqueue")
	defer c.Close()

	held := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), "SELECT count(*) FROM sales")
		held <- err
	}()
	gate.WaitInFlight(t, 1)

	_, err := c.Do(context.Background(), "SELECT count(*) FROM daily")
	if code := diag.CodeOf(err); code != diag.CodeTenantCap {
		t.Fatalf("err = %v (code %q), want %s", err, code, diag.CodeTenantCap)
	}
	gate.Release()
	if err := <-held; err != nil {
		t.Fatalf("held statement: %v", err)
	}
}

func TestSessionIdleTimeoutPCT213(t *testing.T) {
	defer leakcheck.Check(t)()
	srv := startServer(t, demoDB(t), server.Config{SessionTimeout: 30 * time.Millisecond})
	defer srv.Close()
	c := dial(t, srv, "alpha")
	defer c.Close()
	// Ping until the server's idle notice lands: each iteration leaves the
	// session idle past its timeout, so the second attempt should already
	// see the typed PCT213 close.
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err = c.Ping(context.Background()); err != nil {
			break
		}
		time.Sleep(60 * time.Millisecond)
	}
	if code := diag.CodeOf(err); code != diag.CodeSessionTimeout {
		t.Fatalf("err = %v (code %q), want %s", err, code, diag.CodeSessionTimeout)
	}
}

func TestTenantLimitsEnforcedOverWire(t *testing.T) {
	defer leakcheck.Check(t)()
	srv := startServer(t, demoDB(t), server.Config{
		Tenants: []server.TenantProfile{{Name: "tiny", Limits: pctagg.Limits{MaxRows: 2}}},
	})
	defer srv.Close()
	c := dial(t, srv, "tiny")
	defer c.Close()
	// The tenant's budget governs the statement however it is phrased: a
	// prefix must not lift it.
	for _, sql := range []string{"SELECT RID, state FROM sales", "EXPLAIN ANALYZE SELECT RID, state FROM sales"} {
		_, err := c.Do(context.Background(), sql)
		if code := diag.CodeOf(err); code != diag.CodeRowLimit {
			t.Errorf("%s: err = %v (code %q), want %s (tenant MaxRows=2)", sql, err, code, diag.CodeRowLimit)
		}
	}
}

// TestTenantTimeoutBoundsPercentageQuery: a tenant's Timeout is the deadline
// of the query it sent, not of each statement the query is rewritten into. A
// delay on every staged row keeps each generated step (80 ms at most) under
// the timeout while the plan (200 ms) runs over it: the tenant sees PCT201,
// and no temp table is left behind.
func TestTenantTimeoutBoundsPercentageQuery(t *testing.T) {
	defer leakcheck.Check(t)()
	db := demoDB(t)
	if err := db.EnableIntrospection(pctagg.IntrospectionConfig{}); err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, db, server.Config{
		Tenants: []server.TenantProfile{{Name: "timed", Limits: pctagg.Limits{Timeout: 140 * time.Millisecond}}},
	})
	defer srv.Close()
	c := dial(t, srv, "timed")
	defer c.Close()
	chaos.Enable()
	defer chaos.Disable()
	chaos.Arm(chaos.InsertSink, chaos.Fault{Delay: 20 * time.Millisecond})
	_, err := c.Do(context.Background(), "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city")
	if code := diag.CodeOf(err); code != diag.CodeDeadline {
		t.Fatalf("err = %v (code %q), want %s", err, code, diag.CodeDeadline)
	}
	for _, name := range db.Tables() {
		if strings.HasPrefix(name, "pct_") {
			t.Errorf("timed-out query left %s behind: %v", name, db.Tables())
		}
	}
	// However slow the machine, it was the query's deadline: a generated
	// INSERT finished before it fired, and the generated statement it stopped
	// had run for less than the timeout by itself.
	finished, stopped := 0, 0
	for _, r := range db.Engine().FlightRecords() {
		switch {
		case strings.Contains(r.Query, "vpct("): // the query itself
		case r.ErrCode == "" && strings.HasPrefix(r.Query, "INSERT"):
			finished++
		case r.ErrCode == diag.CodeDeadline && time.Duration(r.DurNs) < 140*time.Millisecond:
			stopped++
		}
	}
	if finished == 0 || stopped != 1 {
		t.Errorf("%d generated INSERTs finished and %d statements stopped under the timeout, want ≥ 1 and 1: %+v",
			finished, stopped, db.Engine().FlightRecords())
	}
}

func TestStatSessionsCatalog(t *testing.T) {
	defer leakcheck.Check(t)()
	db := demoDB(t)
	srv := startServer(t, db, server.Config{})
	defer srv.Close()
	a := dial(t, srv, "alpha")
	defer a.Close()
	b := dial(t, srv, "beta")
	defer b.Close()
	for i := 0; i < 3; i++ {
		if _, err := a.Do(context.Background(), "SELECT count(*) FROM sales"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Do(context.Background(), "SELECT count(*) FROM daily"); err != nil {
		t.Fatal(err)
	}

	// The catalog is queryable over the wire itself, with the full dialect.
	res, err := b.Do(context.Background(), "SELECT tenant, statements, rejected FROM pct_stat_sessions ORDER BY sid")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("pct_stat_sessions has %d rows, want 2: %v", len(res.Rows), res.Rows)
	}
	if got := res.Rows[0][0].(string); got != "alpha" {
		t.Errorf("row 0 tenant = %q, want alpha", got)
	}
	if n := res.Rows[0][1].(int64); n != 3 {
		t.Errorf("alpha statements = %d, want 3", n)
	}
	// The beta row's catalog query is itself still in flight when the
	// snapshot is built, so only the earlier statement counts as completed.
	if n := res.Rows[1][1].(int64); n != 1 {
		t.Errorf("beta statements = %d, want 1", n)
	}

	// After shutdown the virtual table unregisters.
	srv.Close()
	if _, err := db.Query("SELECT * FROM pct_stat_sessions"); err == nil {
		t.Fatal("pct_stat_sessions still queryable after Close")
	}
}

func TestLateConnectAfterCloseRefused(t *testing.T) {
	defer leakcheck.Check(t)()
	srv := startServer(t, demoDB(t), server.Config{})
	addr := srv.Addr().String()
	srv.Close()
	if _, err := server.Dial(addr, "alpha"); err == nil {
		t.Fatal("dial succeeded after Close")
	}
}

func TestSharedBytePoolClampsTenantBudget(t *testing.T) {
	defer leakcheck.Check(t)()
	// Pool smaller than the tenant's own byte limit: the grant clamps the
	// statement's MaxBytes to the pool, so a hog fails with PCT205 instead
	// of starving everyone else.
	srv := startServer(t, demoDB(t), server.Config{
		SharedBytes: 512,
		Tenants:     []server.TenantProfile{{Name: "hog", Limits: pctagg.Limits{MaxBytes: 1 << 30}}},
	})
	defer srv.Close()
	c := dial(t, srv, "hog")
	defer c.Close()
	_, err := c.Do(context.Background(), "SELECT a.RID, b.RID, c.RID FROM sales a, sales b, sales c")
	if code := diag.CodeOf(err); code != diag.CodeByteBudget {
		t.Fatalf("err = %v (code %q), want %s", err, code, diag.CodeByteBudget)
	}
	if !strings.Contains(err.Error(), "byte") {
		t.Errorf("error does not name the byte budget: %v", err)
	}
}

// TestSessionsLedgerReconcilesUnderLoad is the load reconciliation: two
// tenants × three sessions × eight statements against admission knobs tight
// enough (one running, one queued) that a tenant's third session is refused.
// Clients retry a retryable refusal honouring the server's backoff hint;
// every statement ends completed or shed, none in error; and while the
// sessions are still open the server's own pct_stat_sessions ledger equals
// the client-side counts.
func TestSessionsLedgerReconcilesUnderLoad(t *testing.T) {
	defer leakcheck.Check(t)()
	const tenants, sessions, statements, retries = 2, 3, 8, 2
	mix := []string{
		"SELECT state, Vpct(salesAmt) FROM sales GROUP BY state",
		"SELECT count(*), sum(salesAmt) FROM sales",
		"SELECT dweek, Vpct(salesAmt) FROM daily GROUP BY dweek",
		"SELECT state, city, salesAmt FROM sales",
	}
	var profiles []server.TenantProfile
	for i := 0; i < tenants; i++ {
		profiles = append(profiles, server.TenantProfile{Name: "load" + strconv.Itoa(i), MaxConcurrent: 1, MaxQueue: 1})
	}
	srv := startServer(t, demoDB(t), server.Config{Tenants: profiles})
	defer srv.Close()

	type ledger struct{ completed, rejected, shed, errors int64 }
	out := make([]ledger, tenants*sessions)
	var wg sync.WaitGroup
	for i := range out {
		c := dial(t, srv, "load"+strconv.Itoa(i/sessions))
		defer c.Close() // the sessions stay open until the ledger is read
		wg.Add(1)
		go func(i int, o *ledger) {
			defer wg.Done()
			for n := 0; n < statements; n++ {
				for attempt := 0; ; attempt++ {
					_, err := c.Do(context.Background(), mix[(i+n)%len(mix)])
					var re *server.RemoteError
					if err == nil {
						o.completed++
					} else if !errors.As(err, &re) || !re.IsRetryable {
						t.Errorf("session %d: %v", i, err)
						o.errors++
					} else if o.rejected++; attempt < retries {
						time.Sleep(min(max(re.Backoff, time.Millisecond), 50*time.Millisecond))
						continue
					} else {
						o.shed++
					}
					break
				}
			}
		}(i, &out[i])
	}
	wg.Wait()

	var total ledger
	for _, o := range out {
		total.completed += o.completed
		total.rejected += o.rejected
		total.shed += o.shed
		total.errors += o.errors
	}
	if got := total.completed + total.shed + total.errors; got != tenants*sessions*statements || total.errors != 0 || total.completed == 0 {
		t.Fatalf("accounted statements = %d of %d (%+v), want all, none in error", got, tenants*sessions*statements, total)
	}
	observer := dial(t, srv, "observer") // its own tenant: the load rows are undisturbed
	defer observer.Close()
	res, err := observer.Do(context.Background(), "SELECT sum(statements), sum(rejected), count(*) FROM pct_stat_sessions WHERE tenant <> 'observer'")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(res.Rows[0]), fmt.Sprint([]any{total.completed, total.rejected, int64(tenants * sessions)}); got != want {
		t.Errorf("pct_stat_sessions [statements rejected sessions] = %s, clients counted %s", got, want)
	}
}

// TestWireRowsMatchQuery: every cell type comes back over the wire as the Go
// type and value pctagg.Query returns — a whole REAL stays a float64, not an
// int64 — and a Vpct of 100 % reads 1.0.
func TestWireRowsMatchQuery(t *testing.T) {
	defer leakcheck.Check(t)()
	db := pctagg.Open()
	if _, err := db.Exec("CREATE TABLE t (k INTEGER, x REAL, s VARCHAR, b BOOLEAN)"); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("t", [][]any{
		{int64(1), 2.0, "a", true},
		{int64(-7), math.Copysign(0, -1), "quote \" back \\ tab \t é", false},
		{int64(1 << 40), 0.5, "", nil},
		{int64(4), 1e21, nil, true},
		{nil, nil, "a", false},
	}); err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, db, server.Config{})
	defer srv.Close()
	c := dial(t, srv, "alpha")
	defer c.Close()
	for _, q := range []string{
		"SELECT k, x, s, b FROM t ORDER BY k",
		"SELECT b, Vpct(x) FROM t WHERE k = 1 GROUP BY b",
	} {
		want, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Do(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows, want.Data) {
			t.Errorf("%s\nwire:  %#v\nQuery: %#v", q, got.Rows, want.Data)
		}
	}
}

// TestNonFiniteRealKeepsSession: a result holding +Inf or NaN has no JSON
// form. Its request fails with PCT214, and the next statement on the same
// connection runs.
func TestNonFiniteRealKeepsSession(t *testing.T) {
	defer leakcheck.Check(t)()
	db := pctagg.Open()
	if _, err := db.Exec("CREATE TABLE t (k INTEGER, x REAL); INSERT INTO t VALUES (1, 1e308)"); err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, db, server.Config{})
	defer srv.Close()
	c := dial(t, srv, "alpha")
	defer c.Close()
	for _, q := range []string{"SELECT k, x * 10.0 FROM t", "SELECT k, x * 10.0 - x * 10.0 FROM t"} {
		_, err := c.Do(context.Background(), q)
		if code := diag.CodeOf(err); code != diag.CodeUnencodable {
			t.Errorf("%s: err = %v (code %q), want %s", q, err, code, diag.CodeUnencodable)
		}
		res, err := c.Do(context.Background(), "SELECT k FROM t")
		if err != nil {
			t.Fatalf("after %s: %v", q, err)
		}
		if !reflect.DeepEqual(res.Rows, [][]any{{int64(1)}}) {
			t.Errorf("after %s: rows = %v", q, res.Rows)
		}
	}
}
