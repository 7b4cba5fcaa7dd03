package bench

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden table files")

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

// wantShape is what each declared experiment regenerates at tinyConfig():
// rows × columns, and a label known to be among the rows.
var wantShape = map[string]struct {
	rows, cols int
	label      string
}{
	"4":        {8, 4, "employee gender | -"},
	"5":        {8, 2, "sales dweek | -"},
	"6":        {8, 3, "sales dept,store | dweek,monthNo"},
	"h3":       {17, 4, "trans2 dayOfWeekNo,monthNo | deptId,storeId"},
	"update":   {2, 2, "sales dweek,monthNo | transactionId"},
	"shared":   {1, 2, "sales 3×Vpct over (dweek,monthNo,dept)"},
	"parallel": {8, 4, "employee gender,educat | age,marstatus"},
}

var timeCell = regexp.MustCompile(`\d+\.\d{3}\b`)

// TestExperiments is the one table-driven test of the declaration: every
// experiment is regenerated on one suite, in order, the way `pctbench -table
// all` runs them, and held to wantShape, to positive times, to the checked-in
// golden of its printed form with the time cells masked (title, note, headers,
// row labels, row order — regenerate with -update), and to handing the suite
// on as it found it: summary sharing back where it was and nothing in the
// catalog but data sets. The parallel table prints
// its worker count, so the goldens are taken at two.
func TestExperiments(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := mustSuite(t)
	for _, exp := range Experiments() {
		t.Run(exp.Key, func(t *testing.T) {
			want, ok := wantShape[exp.Key]
			if !ok {
				t.Fatalf("experiment %q has no entry in wantShape", exp.Key)
			}
			sharing := s.Planner.SharesSummaries()
			tab, err := s.Run(exp)
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) != want.rows || len(tab.Header) != want.cols {
				t.Fatalf("table = %d rows × %d columns, want %d × %d", len(tab.Rows), len(tab.Header), want.rows, want.cols)
			}
			for _, r := range tab.Rows {
				if len(r.Times) != want.cols {
					t.Fatalf("row %s times = %v", r.Label, r.Times)
				}
				for i, d := range r.Times {
					if d <= 0 {
						t.Errorf("row %s col %d: non-positive time", r.Label, i)
					}
				}
			}
			out := tab.Format()
			if !strings.Contains(out, exp.Title) || !strings.Contains(out, want.label) {
				t.Errorf("format lacks the title or %q:\n%s", want.label, out)
			}
			masked := timeCell.ReplaceAllString(out, "#.###")
			golden := filepath.Join("testdata", exp.Key+".golden")
			if *updateGolden {
				if err := os.WriteFile(golden, []byte(masked), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if pinned, err := os.ReadFile(golden); err != nil {
				t.Fatalf("reading golden file (run with -update to create it): %v", err)
			} else if masked != string(pinned) {
				t.Errorf("diverges from %s (run with -update if intentional):\n got:\n%s\nwant:\n%s", golden, masked, pinned)
			}

			if s.Planner.SharesSummaries() != sharing {
				t.Errorf("left summary sharing %v, was %v", !sharing, sharing)
			}
			for _, name := range s.Eng.Catalog().Names() {
				if !s.loaded[name] {
					t.Errorf("left %q in the catalog", name)
				}
			}
		})
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
		if err := cfg.validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
		}
		if s, err := NewSuite(cfg, nil); err == nil {
			t.Errorf("%s: NewSuite accepted invalid config (suite=%v)", tc.name, s != nil)
		}
	}
	if err := tinyConfig().validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestEnsureUnknownDataset(t *testing.T) {
	s := mustSuite(t)
	if err := s.Ensure("bogus"); err == nil {
		t.Error("unknown data set must fail")
	}
}

// TestAdvisedHpctColumn pins the strategies the Hpct columns of Table 6 and
// the parallel table are timed on: the advisor's, which follow
// |F|/|Fk| — sales by dweek alone pre-aggregates to seven rows, while dept,store
// under dweek,monthNo keeps a fine grouping the size of F however many result
// columns it has.
func TestAdvisedHpctColumn(t *testing.T) {
	s := mustSuite(t)
	if err := s.Ensure("sales"); err != nil {
		t.Fatal(err)
	}
	qs := PrimaryQueries()
	for _, tc := range []struct {
		q      Query
		fromFV bool
	}{{qs[4], true}, {qs[7], false}} {
		st, err := s.stmtFor(tc.q, Column{SQL: Query.HpctSQL, Advised: true})
		if err != nil {
			t.Fatal(err)
		}
		if st.opts.Hpct.FromFV != tc.fromFV {
			t.Errorf("%s: advised FromFV = %v, want %v", tc.q.label(), st.opts.Hpct.FromFV, tc.fromFV)
		}
	}
}
