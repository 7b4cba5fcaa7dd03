// Package bench is the experiment harness: it regenerates every table of
// both evaluations (the primary paper's Tables 4, 5 and 6, and the
// companion paper's Table 3) on the synthetic workloads, timing each
// strategy the way the paper does — the multi-statement plan execution,
// excluding the final result cursor.
//
// Absolute times differ from the paper's Teradata-on-800MHz numbers by
// construction; the harness reproduces the qualitative shape: which
// strategy wins each cell and by roughly what factor. EXPERIMENTS.md
// records the paper-vs-measured comparison.
package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Config sizes the synthetic data sets. The paper's scale (employee n=1M,
// sales n=10M, transactionLine n=1M/2M, census n=200k) is PaperConfig;
// smaller presets keep default runs tractable while preserving the
// |F| ≫ |Fk| ≫ |Fj| ratios that drive the findings.
type Config struct {
	EmployeeN int
	SalesN    int
	TransN1   int
	TransN2   int
	CensusN   int
	Seed      int64
	Cards     workload.Cardinalities
	// Reps repeats each measurement and reports the mean (the paper used
	// five repetitions).
	Reps int
	// LabelFilter, when nonempty, restricts experiment tables to rows
	// whose label contains the substring — useful for re-running one
	// query, or for paper-scale runs where the widest horizontal queries
	// take hours.
	LabelFilter string
}

// validate rejects configurations the loaders cannot populate: every data
// set size must be positive (rand.Intn panics on zero cardinalities and the
// |F| ≫ |Fk| ratios collapse), and the dimension cardinalities must be set
// (a zero-value Cards means the caller forgot the preset).
func (c Config) validate() error {
	sizes := []struct {
		name string
		n    int
	}{
		{"EmployeeN", c.EmployeeN}, {"SalesN", c.SalesN},
		{"TransN1", c.TransN1}, {"TransN2", c.TransN2}, {"CensusN", c.CensusN},
	}
	for _, s := range sizes {
		if s.n <= 0 {
			return fmt.Errorf("bench: config %s = %d, want > 0", s.name, s.n)
		}
	}
	if c.Cards.Dweek <= 0 || c.Cards.Dept <= 0 || c.Cards.Store <= 0 {
		return fmt.Errorf("bench: config Cards unset (Dweek=%d Dept=%d Store=%d); start from SmallConfig/MediumConfig/PaperConfig",
			c.Cards.Dweek, c.Cards.Dept, c.Cards.Store)
	}
	if c.Reps < 0 {
		return fmt.Errorf("bench: config Reps = %d, want >= 0", c.Reps)
	}
	return nil
}

// SmallConfig sizes data for unit tests and `go test -bench`. Dimension
// cardinalities scale down with n so that the widest horizontal result
// keeps roughly the paper's rows-per-result-column ratio (n=10M over
// N=10,000 columns ≈ 1000); without this, the N-CASE evaluation cost would
// dwarf everything at small n and distort every comparison.
func SmallConfig() Config {
	c := workload.PaperCardinalities()
	c.Dept = 20
	c.Store = 5 // widest Hpct: 20×5 = 100 columns at n=50k → n/N = 500
	c.TLSubdept = 25
	c.TLStore = 10
	return Config{
		EmployeeN: 20_000, SalesN: 50_000, TransN1: 30_000, TransN2: 60_000,
		CensusN: 20_000, Seed: 7, Cards: c, Reps: 1,
	}
}

// MediumConfig is the cmd/pctbench default: a laptop-minutes run.
func MediumConfig() Config {
	c := workload.PaperCardinalities()
	c.Dept = 50
	c.Store = 10 // widest Hpct: 50×10 = 500 columns at n=300k → n/N = 600
	c.TLSubdept = 50
	c.TLStore = 15
	return Config{
		EmployeeN: 100_000, SalesN: 300_000, TransN1: 100_000, TransN2: 200_000,
		CensusN: 100_000, Seed: 7, Cards: c, Reps: 1,
	}
}

// PaperConfig reproduces the papers' sizes and cardinalities. Expect a
// long run and several GB of memory.
func PaperConfig() Config {
	return Config{
		EmployeeN: 1_000_000, SalesN: 10_000_000, TransN1: 1_000_000, TransN2: 2_000_000,
		CensusN: 200_000, Seed: 7, Cards: workload.PaperCardinalities(), Reps: 1,
	}
}

// Suite owns the loaded data sets and runs experiments against them.
type Suite struct {
	Cfg     Config
	Eng     *engine.Engine
	Planner *core.Planner
	Log     io.Writer // progress messages; nil silences them

	loaded map[string]bool
}

// NewSuite creates an empty suite; data sets load lazily per experiment.
// The configuration is validated up front so a bad config fails loudly here
// instead of producing a half-built suite that panics (or silently times
// empty tables) mid-benchmark.
func NewSuite(cfg Config, log io.Writer) (*Suite, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	eng := engine.New(storage.NewCatalog())
	return &Suite{Cfg: cfg, Eng: eng, Planner: core.NewPlanner(eng), Log: log, loaded: map[string]bool{}}, nil
}

func (s *Suite) logf(format string, args ...any) {
	if s.Log != nil {
		fmt.Fprintf(s.Log, format, args...)
	}
}

// Ensure loads a named data set once.
func (s *Suite) Ensure(name string) error {
	if s.loaded[name] {
		return nil
	}
	start := time.Now()
	var err error
	switch name {
	case "employee":
		_, err = workload.LoadEmployee(s.Eng.Catalog(), "employee", s.Cfg.EmployeeN, s.Cfg.Seed)
	case "sales":
		_, err = workload.LoadSales(s.Eng.Catalog(), "sales", s.Cfg.SalesN, s.Cfg.Cards, s.Cfg.Seed+1)
	case "trans1":
		_, err = workload.LoadTransactionLine(s.Eng.Catalog(), "trans1", s.Cfg.TransN1, s.Cfg.Cards, s.Cfg.Seed+2)
	case "trans2":
		_, err = workload.LoadTransactionLine(s.Eng.Catalog(), "trans2", s.Cfg.TransN2, s.Cfg.Cards, s.Cfg.Seed+3)
	case "census":
		_, err = workload.LoadCensus(s.Eng.Catalog(), "census", s.Cfg.CensusN, s.Cfg.Seed+4)
	default:
		err = fmt.Errorf("bench: unknown data set %q", name)
	}
	if err != nil {
		return err
	}
	s.loaded[name] = true
	s.logf("loaded %s in %.1fs\n", name, time.Since(start).Seconds())
	return nil
}

// stmt is one timed statement: a percentage query planned under opts, or —
// plain — SQL the engine runs as it stands (the OLAP baseline).
type stmt struct {
	sql   string
	opts  core.Options
	plain bool
}

// timeStmt runs st once and returns its wall time the way the paper takes
// it: plan generation (the horizontal feedback query included) plus the
// execution of the plan's steps. The final result cursor is not opened and
// dropping the plan's temporaries is not timed.
func (s *Suite) timeStmt(st stmt) (time.Duration, error) {
	start := time.Now()
	if st.plain {
		_, err := s.Eng.ExecSQL(st.sql)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", st.sql, err)
		}
		return time.Since(start), nil
	}
	plan, err := s.Planner.PlanSQL(st.sql, st.opts)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", st.sql, err)
	}
	_, err = s.Planner.ExecuteStepsCtx(context.Background(), plan)
	d := time.Since(start)
	s.Planner.CleanupPlan(plan)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", st.sql, err)
	}
	return d, nil
}

// timeBatch times stmts run one after the other and returns the mean of
// Cfg.Reps runs, collecting garbage before each so that a cell does not pay
// for the previous measurement's heap.
func (s *Suite) timeBatch(stmts []stmt) (time.Duration, error) {
	reps := max(s.Cfg.Reps, 1)
	var total time.Duration
	for r := 0; r < reps; r++ {
		runtime.GC()
		for _, st := range stmts {
			d, err := s.timeStmt(st)
			if err != nil {
				return 0, err
			}
			total += d
		}
	}
	return total / time.Duration(reps), nil
}

// TimeQuery plans and executes one percentage query under opts, returning
// the mean wall time of Cfg.Reps runs.
func (s *Suite) TimeQuery(sql string, opts core.Options) (time.Duration, error) {
	return s.timeBatch([]stmt{{sql: sql, opts: opts}})
}

// Row is one experiment row: a query label and one duration per strategy
// column.
type Row struct {
	Label string
	Times []time.Duration
}

// Table is one regenerated experiment table.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   []Row
}

// Format renders the table in the paper's layout (times in seconds).
func (t *Table) Format() string {
	var sb strings.Builder
	sb.WriteString(t.Title)
	sb.WriteString("\n")
	if t.Note != "" {
		sb.WriteString(t.Note)
		sb.WriteString("\n")
	}
	labelW := len("query")
	for _, r := range t.Rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	colW := make([]int, len(t.Header))
	for i, h := range t.Header {
		colW[i] = len(h)
		if colW[i] < 8 {
			colW[i] = 8
		}
	}
	fmt.Fprintf(&sb, "%-*s", labelW, "query")
	for i, h := range t.Header {
		fmt.Fprintf(&sb, "  %*s", colW[i], h)
	}
	sb.WriteString("\n")
	sb.WriteString(strings.Repeat("-", labelW))
	for i := range t.Header {
		sb.WriteString("  ")
		sb.WriteString(strings.Repeat("-", colW[i]))
	}
	sb.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-*s", labelW, r.Label)
		for i, d := range r.Times {
			fmt.Fprintf(&sb, "  %*.3f", colW[i], d.Seconds())
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
