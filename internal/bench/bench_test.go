package bench

import (
	"strings"
	"testing"
)

// tinyConfig keeps harness tests fast while exercising every code path.
func tinyConfig() Config {
	c := SmallConfig()
	c.EmployeeN = 3000
	c.SalesN = 5000
	c.TransN1 = 3000
	c.TransN2 = 6000
	c.CensusN = 3000
	c.Cards.Store = 5
	c.Cards.Dept = 10
	c.Cards.TLSubdept = 20
	c.Cards.TLStore = 5
	return c
}

func mustSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := NewSuite(tinyConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunTable4(t *testing.T) {
	s := mustSuite(t)
	tab, err := s.RunTable4()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if len(r.Times) != 4 {
			t.Fatalf("row %s times = %v", r.Label, r.Times)
		}
		for i, d := range r.Times {
			if d <= 0 {
				t.Errorf("row %s col %d: non-positive time", r.Label, i)
			}
		}
	}
	out := tab.Format()
	if !strings.Contains(out, "Table 4") || !strings.Contains(out, "employee gender") {
		t.Errorf("format:\n%s", out)
	}
}

func TestRunTable5(t *testing.T) {
	s := mustSuite(t)
	tab, err := s.RunTable5()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 || len(tab.Rows[0].Times) != 2 {
		t.Fatalf("table = %+v", tab)
	}
}

func TestRunTable6(t *testing.T) {
	s := mustSuite(t)
	tab, err := s.RunTable6()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 || len(tab.Rows[0].Times) != 3 {
		t.Fatalf("table = %+v", tab)
	}
}

func TestRunTableH3(t *testing.T) {
	s := mustSuite(t)
	tab, err := s.RunTableH3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 17 || len(tab.Rows[0].Times) != 4 {
		t.Fatalf("table = %d rows × %d cols", len(tab.Rows), len(tab.Rows[0].Times))
	}
}

func TestRunAblationPivot(t *testing.T) {
	s := mustSuite(t)
	tab, err := s.RunAblationPivot()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 || len(tab.Rows[0].Times) != 2 {
		t.Fatalf("table = %+v", tab)
	}
	if !s.Eng.BatchEnabled() {
		t.Error("the ablation left the fold operator disabled")
	}
}

func TestSuiteLeavesNoTemporaries(t *testing.T) {
	s := mustSuite(t)
	if _, err := s.RunTable4(); err != nil {
		t.Fatal(err)
	}
	for _, name := range s.Eng.Catalog().Names() {
		if name != "employee" && name != "sales" {
			t.Errorf("leftover temporary table %q", name)
		}
	}
}

func TestConfigs(t *testing.T) {
	for _, c := range []Config{SmallConfig(), MediumConfig(), PaperConfig()} {
		if c.EmployeeN <= 0 || c.SalesN <= 0 || c.Cards.Dweek != 7 {
			t.Errorf("bad config %+v", c)
		}
	}
	if PaperConfig().SalesN != 10_000_000 {
		t.Error("paper scale must match the paper")
	}
}

// TestNewSuiteRejectsInvalidConfig is the regression test for the root
// bench_test.go suiteOnce bug: NewSuite used to succeed on impossible
// configurations and the benchmarks then panicked (or silently timed empty
// tables) deep inside the loaders. Bad configs must fail at construction.
func TestNewSuiteRejectsInvalidConfig(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero value", func(c *Config) { *c = Config{} }},
		{"zero employee", func(c *Config) { c.EmployeeN = 0 }},
		{"negative sales", func(c *Config) { c.SalesN = -1 }},
		{"zero census", func(c *Config) { c.CensusN = 0 }},
		{"unset cards", func(c *Config) { c.Cards.Store = 0 }},
		{"negative reps", func(c *Config) { c.Reps = -1 }},
	}
	for _, tc := range cases {
		cfg := tinyConfig()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
		}
		if s, err := NewSuite(cfg, nil); err == nil {
			t.Errorf("%s: NewSuite accepted invalid config (suite=%v)", tc.name, s != nil)
		}
	}
	if err := tinyConfig().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestRunTableParallel(t *testing.T) {
	s := mustSuite(t)
	tab, err := s.RunTableParallel()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if len(r.Times) != 4 {
			t.Fatalf("row %s times = %v", r.Label, r.Times)
		}
		for i, d := range r.Times {
			if d <= 0 {
				t.Errorf("row %s col %d: non-positive time", r.Label, i)
			}
		}
	}
	out := tab.Format()
	if !strings.Contains(out, "P=1") || !strings.Contains(out, "Parallel") {
		t.Errorf("format:\n%s", out)
	}
}

func TestEnsureUnknownDataset(t *testing.T) {
	s := mustSuite(t)
	if err := s.Ensure("bogus"); err == nil {
		t.Error("unknown data set must fail")
	}
}

func TestRunAblationUpdate(t *testing.T) {
	s := mustSuite(t)
	tab, err := s.RunAblationUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 || len(tab.Rows[0].Times) != 2 {
		t.Fatalf("table = %+v", tab)
	}
}

func TestRunAblationShared(t *testing.T) {
	s := mustSuite(t)
	tab, err := s.RunAblationShared()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 || len(tab.Rows[0].Times) != 2 {
		t.Fatalf("table = %+v", tab)
	}
	// Sharing must not leave summaries behind.
	for _, name := range s.Eng.Catalog().Names() {
		if name != "sales" {
			t.Errorf("leftover table %q", name)
		}
	}
}

// TestBestHpctHeuristic pins the strategies the Hpct columns of Table 6, the
// parallel table and the breakdown are timed on: the advisor's, which follow
// |F|/|Fk| — sales by dweek alone pre-aggregates to seven rows, while dept,store
// under dweek,monthNo keeps a fine grouping the size of F however many result
// columns it has.
func TestBestHpctHeuristic(t *testing.T) {
	s := mustSuite(t)
	if err := s.Ensure("sales"); err != nil {
		t.Fatal(err)
	}
	qs := s.PrimaryQueries()
	for _, tc := range []struct {
		q      Query
		fromFV bool
	}{{qs[4], true}, {qs[7], false}} {
		opts, err := s.AdviseHpct(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if opts.Hpct.FromFV != tc.fromFV {
			t.Errorf("%s: advised FromFV = %v, want %v", tc.q.Label(), opts.Hpct.FromFV, tc.fromFV)
		}
	}
}
