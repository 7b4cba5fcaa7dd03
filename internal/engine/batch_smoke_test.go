package engine

import (
	"testing"

	"repro/internal/storage"
)

// TestBatchPathFires pins that a GROUP BY runs through the fold operator
// (batch.folds) and that SetBatch(false) routes it to the reference instead,
// counted in batch.fallbacks.
func TestBatchPathFires(t *testing.T) {
	cat := storage.NewCatalog()
	e := New(cat)
	mustExec := func(sql string) {
		t.Helper()
		if _, err := e.ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(`CREATE TABLE s (k INTEGER, g VARCHAR, v INTEGER);
		INSERT INTO s VALUES (1,'a',10),(2,'b',20),(3,'a',30)`)
	before := mBatchFolds.Value()
	mustExec(`SELECT g, sum(v) FROM s GROUP BY g`)
	if after := mBatchFolds.Value(); after != before+1 {
		t.Fatalf("batch.folds went %d -> %d, want one vectorized fold", before, after)
	}
	e.SetBatch(false)
	foldsBefore, fallbacksBefore := mBatchFolds.Value(), mBatchFallbacks.Value()
	mustExec(`SELECT g, sum(v) FROM s GROUP BY g`)
	if after := mBatchFolds.Value(); after != foldsBefore {
		t.Fatalf("SetBatch(false) still ran the fold operator")
	}
	if after := mBatchFallbacks.Value(); after != fallbacksBefore+1 {
		t.Fatalf("batch.fallbacks went %d -> %d, want one reference fold", fallbacksBefore, after)
	}
	if !e.BatchEnabled() {
		e.SetBatch(true)
	}
	if !e.BatchEnabled() {
		t.Fatal("SetBatch(true) did not re-enable the batch path")
	}
}
