package engine

import (
	"testing"

	"repro/internal/storage"
)

// TestBatchPathFires pins that a GROUP BY runs through the fold operator
// (batch.folds) and that the reference engine, once installed, folds it
// instead.
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
	UseReference(e, true)
	before = mBatchFolds.Value()
	mustExec(`SELECT g, sum(v) FROM s GROUP BY g`)
	if after := mBatchFolds.Value(); after != before {
		t.Fatalf("the reference engine still ran the fold operator")
	}
	UseReference(e, false)
	mustExec(`SELECT g, sum(v) FROM s GROUP BY g`)
	if after := mBatchFolds.Value(); after != before+1 {
		t.Fatal("removing the reference did not bring the fold operator back")
	}
}
