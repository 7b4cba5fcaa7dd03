package workload

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
)

func TestLoadEmployeeCardinalities(t *testing.T) {
	cat := storage.NewCatalog()
	tab, err := LoadEmployee(cat, "employee", 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 5000 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	e := engine.New(cat)
	for col, want := range map[string]int64{"gender": 2, "marstatus": 4, "educat": 5, "age": 100} {
		r, err := e.ExecSQL("SELECT count(DISTINCT " + col + ") FROM employee")
		if err != nil {
			t.Fatal(err)
		}
		got := r.Rows[0][0].Int()
		if got != want {
			t.Errorf("%s cardinality = %d, want %d", col, got, want)
		}
	}
}

func TestLoadSalesCardinalities(t *testing.T) {
	cat := storage.NewCatalog()
	card := PaperCardinalities()
	card.Store = 10 // scaled-down knob must be honored
	tab, err := LoadSales(cat, "sales", 20000, card, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 20000 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	e := engine.New(cat)
	for col, want := range map[string]int64{"dweek": 7, "monthNo": 12, "store": 10, "state": 5} {
		r, err := e.ExecSQL("SELECT count(DISTINCT " + col + ") FROM sales")
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Rows[0][0].Int(); got != want {
			t.Errorf("%s cardinality = %d, want %d", col, got, want)
		}
	}
	// transactionId is the row id: all distinct.
	r, _ := e.ExecSQL("SELECT count(DISTINCT transactionId) FROM sales")
	if r.Rows[0][0].Int() != 20000 {
		t.Error("transactionId must be unique per row")
	}
}

func TestLoadTransactionLine(t *testing.T) {
	cat := storage.NewCatalog()
	tab, err := LoadTransactionLine(cat, "tl", 10000, PaperCardinalities(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 10000 || tab.NumCols() != 14 {
		t.Fatalf("dims = %dx%d", tab.NumRows(), tab.NumCols())
	}
	e := engine.New(cat)
	for col, want := range map[string]int64{"deptId": 10, "regionId": 4, "dayOfWeekNo": 7} {
		r, err := e.ExecSQL("SELECT count(DISTINCT " + col + ") FROM tl")
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Rows[0][0].Int(); got != want {
			t.Errorf("%s cardinality = %d, want %d", col, got, want)
		}
	}
}

func TestLoadCensusSkew(t *testing.T) {
	cat := storage.NewCatalog()
	tab, err := LoadCensus(cat, "census", 20000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 20000 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	e := engine.New(cat)
	// Skew: the most frequent iSchool value holds well above the uniform
	// share (1/9 ≈ 11%).
	r, err := e.ExecSQL("SELECT iSchool, count(*) FROM census GROUP BY iSchool ORDER BY 2 DESC LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if top := r.Rows[0][1].Int(); top < 20000/4 {
		t.Errorf("top iSchool frequency %d does not look skewed", top)
	}
}

func TestDeterministicSeeds(t *testing.T) {
	for run := 0; run < 2; run++ {
		cat := storage.NewCatalog()
		if _, err := LoadEmployee(cat, "employee", 100, 42); err != nil {
			t.Fatal(err)
		}
		e := engine.New(cat)
		r, err := e.ExecSQL("SELECT sum(salary) FROM employee")
		if err != nil {
			t.Fatal(err)
		}
		got := r.Rows[0][0].Int()
		if run == 0 {
			t.Logf("checksum %d", got)
			continue
		}
		cat2 := storage.NewCatalog()
		if _, err := LoadEmployee(cat2, "employee", 100, 42); err != nil {
			t.Fatal(err)
		}
		e2 := engine.New(cat2)
		r2, _ := e2.ExecSQL("SELECT sum(salary) FROM employee")
		if r2.Rows[0][0].Int() != got {
			t.Error("same seed must generate identical data")
		}
	}
}

func TestPaperSales(t *testing.T) {
	cat := storage.NewCatalog()
	tab, err := paperSales(cat, "sales")
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 10 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	e := engine.New(cat)
	r, _ := e.ExecSQL("SELECT sum(salesAmt) FROM sales")
	if r.Rows[0][0].Int() != 255 {
		t.Errorf("total = %v", r.Rows[0][0])
	}
	if describe(tab) == "" {
		t.Error("describe empty")
	}
}
