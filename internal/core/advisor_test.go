package core

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
)

func TestAdviseVerticalDefaults(t *testing.T) {
	p := newSalesPlanner(t)
	sel, err := parseSelect(vpctSales)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := p.Advise(sel)
	if err != nil {
		t.Fatal(err)
	}
	if opts != DefaultOptions() {
		t.Errorf("vertical advice = %+v, want the defaults", opts)
	}
}

// advisePlanner loads f(g, d1, d2, d3, a) with rows rows cycling through gs
// values of g and ds values of each d column (gs and ds coprime, so every
// combination appears).
func advisePlanner(t *testing.T, rows, gs, ds int) *Planner {
	t.Helper()
	cat := storage.NewCatalog()
	tab, err := cat.Create("f", storage.Schema{
		{Name: "g", Type: storage.TypeInt},
		{Name: "d1", Type: storage.TypeInt},
		{Name: "d2", Type: storage.TypeInt},
		{Name: "d3", Type: storage.TypeInt},
		{Name: "a", Type: storage.TypeInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		d := value.NewInt(int64(i % ds))
		if _, err := tab.AppendRow([]value.Value{value.NewInt(int64(i % gs)), d, d, d, value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return NewPlanner(engine.New(cat))
}

// TestAdviseHorizontalSelectivity pins the advisor's one horizontal rule —
// from FV iff fromFVRatio·|Fk| ≤ |F| — on both sides of the constant, for
// Hpct and Hagg alike, and that the number of BY columns and of result
// columns no longer enters it: the wide and the three-column BY lists over a
// large fine grouping were sent to FV by the paper's rule of thumb.
func TestAdviseHorizontalSelectivity(t *testing.T) {
	const rows = 6000
	for _, tc := range []struct {
		name   string
		gs, ds int // |Fk| = gs·ds
		sql    string
		fromFV bool
	}{
		{"narrow BY, |F|/|Fk| = 1000", 2, 3, "SELECT g, Hpct(a BY d1) FROM f GROUP BY g", true},
		{"narrow BY, |F|/|Fk| = 4", 500, 3, "SELECT g, Hpct(a BY d1) FROM f GROUP BY g", false},
		{"N = 120 columns, |F|/|Fk| = 7", 7, 120, "SELECT g, Hpct(a BY d1) FROM f GROUP BY g", false},
		{"three BY columns, |F|/|Fk| = 4", 500, 3, "SELECT g, Hpct(a BY d1, d2, d3) FROM f GROUP BY g", false},
		{"three BY columns, |F|/|Fk| = 1000", 2, 3, "SELECT g, Hpct(a BY d1, d2, d3) FROM f GROUP BY g", true},
		{"Hagg, N = 120 columns, |F|/|Fk| = 7", 7, 120, "SELECT g, sum(a BY d1) FROM f GROUP BY g", false},
		{"Hagg, |F|/|Fk| = 1000", 2, 3, "SELECT g, sum(a BY d1) FROM f GROUP BY g", true},
		{"at the constant", 1, rows / fromFVRatio, "SELECT Hpct(a BY d1) FROM f", true},
		{"just under the constant", 1, rows/fromFVRatio + 1, "SELECT Hpct(a BY d1) FROM f", false},
	} {
		p := advisePlanner(t, rows, tc.gs, tc.ds)
		sel, err := parseSelect(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		opts, err := p.Advise(sel)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := DefaultOptions()
		if strings.Contains(tc.sql, "Hpct(") {
			want.Hpct.FromFV = tc.fromFV
		} else {
			want.Hagg.FromFV = tc.fromFV
		}
		if opts != want {
			t.Errorf("%s: advice = %+v, want %+v", tc.name, opts, want)
		}
	}
}

// TestAdviseSmallFineGroupingPrefersFV: FV is grouped by the union of every
// term's BY columns, so that union — not the first term's list — is the |Fk|
// the rule compares, and measuring it costs exactly one scan of F.
func TestAdviseSmallFineGroupingPrefersFV(t *testing.T) {
	const rows = 6000
	p := advisePlanner(t, rows, 2, 3)
	// (d1, g, d2) has 3·2 = 6 combinations: far under rows/fromFVRatio.
	sel, err := parseSelect("SELECT sum(a BY d1), max(a BY g, d2) FROM f")
	if err != nil {
		t.Fatal(err)
	}
	scanned := obs.Default.Counter("engine.rows.scanned")
	before := scanned.Value()
	opts, err := p.Advise(sel)
	if err != nil {
		t.Fatal(err)
	}
	if d := scanned.Value() - before; d != rows {
		t.Errorf("Advise scanned %d rows, want one scan of F = %d", d, rows)
	}
	if !opts.Hagg.FromFV {
		t.Errorf("6 fine groups over %d rows should advise from FV: %+v", rows, opts.Hagg)
	}

	// The same two terms where the union makes every row its own group stay
	// on F, although the first term's BY list alone (7 values) would not.
	p = advisePlanner(t, rows, 499, 7)
	if opts, err = p.Advise(sel); err != nil {
		t.Fatal(err)
	}
	if opts.Hagg.FromFV {
		t.Errorf("a fine grouping as large as F should advise from F: %+v", opts.Hagg)
	}
}

func TestAdviseStandardQuery(t *testing.T) {
	p := newSalesPlanner(t)
	sel, _ := parseSelect("SELECT state, sum(salesAmt) FROM sales GROUP BY state")
	if _, err := p.Advise(sel); err != nil {
		t.Fatal(err)
	}
}

// TestAdviseOffersOnlyPlannableFromFV: far above fromFVRatio (6 fine groups
// over 6000 rows) the advisor still answers from F for every shape the
// from-FV planners reject — two Hpct terms, a DISTINCT extra or term, a
// lattice — because both ask fromFVError. The advice must plan and run;
// forcing from FV on the same query must fail.
func TestAdviseOffersOnlyPlannableFromFV(t *testing.T) {
	p := advisePlanner(t, 6000, 2, 3)
	for _, sql := range []string{
		"SELECT g, Hpct(a BY d1), Hpct(a BY d2) FROM f GROUP BY g",
		"SELECT g, Hpct(a BY d1), count(DISTINCT d2) FROM f GROUP BY g",
		"SELECT g, Hpct(a BY d1), GROUPING(g) FROM f GROUP BY ROLLUP(g)",
		"SELECT g, sum(a BY d1), count(DISTINCT d2) FROM f GROUP BY g",
		"SELECT g, count(DISTINCT a BY d1) FROM f GROUP BY g",
	} {
		sel, err := parseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		opts, err := p.Advise(sel)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if opts != DefaultOptions() {
			t.Errorf("%s: advice = %+v, want from F", sql, opts)
		}
		runQuery(t, p, sql, opts)
		forced := Options{Hpct: HpctOptions{FromFV: true}, Hagg: HaggOptions{FromFV: true}}
		if _, err := p.PlanSQL(sql, forced); err == nil || !strings.Contains(err.Error(), "from-FV strategy") {
			t.Errorf("%s: forced from FV: err = %v, want the from-FV rejection", sql, err)
		}
	}
}
