package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
)

// Query is one benchmark query: a data set, a measure, the totals grouping
// D1..Dj and the subgrouping Dj+1..Dk. The paper's tables list the
// subgrouping columns in normal font and the totals columns in italics;
// labels here render them as "by | totals".
type Query struct {
	dataset string
	measure string
	totals  []string
	by      []string
}

func (q Query) Label() string {
	t := "-"
	if len(q.totals) > 0 {
		t = strings.Join(q.totals, ",")
	}
	return fmt.Sprintf("%s %s | %s", q.dataset, strings.Join(q.by, ","), t)
}

// VpctSQL renders the vertical percentage query. An empty totals list uses
// the no-BY form (percentages of the grand total).
func (q Query) VpctSQL() string {
	if len(q.totals) == 0 {
		return fmt.Sprintf("SELECT %s, Vpct(%s) FROM %s GROUP BY %s",
			strings.Join(q.by, ", "), q.measure, q.dataset, strings.Join(q.by, ", "))
	}
	all := append(append([]string{}, q.totals...), q.by...)
	return fmt.Sprintf("SELECT %s, Vpct(%s BY %s) FROM %s GROUP BY %s",
		strings.Join(all, ", "), q.measure, strings.Join(q.by, ", "),
		q.dataset, strings.Join(all, ", "))
}

// HpctSQL renders the horizontal percentage query.
func (q Query) HpctSQL() string {
	if len(q.totals) == 0 {
		return fmt.Sprintf("SELECT Hpct(%s BY %s) FROM %s",
			q.measure, strings.Join(q.by, ", "), q.dataset)
	}
	return fmt.Sprintf("SELECT %s, Hpct(%s BY %s) FROM %s GROUP BY %s",
		strings.Join(q.totals, ", "), q.measure, strings.Join(q.by, ", "),
		q.dataset, strings.Join(q.totals, ", "))
}

// HaggSQL renders the companion paper's horizontal aggregation query.
func (q Query) HaggSQL() string {
	if len(q.totals) == 0 {
		return fmt.Sprintf("SELECT sum(%s BY %s) FROM %s",
			q.measure, strings.Join(q.by, ", "), q.dataset)
	}
	return fmt.Sprintf("SELECT %s, sum(%s BY %s) FROM %s GROUP BY %s",
		strings.Join(q.totals, ", "), q.measure, strings.Join(q.by, ", "),
		q.dataset, strings.Join(q.totals, ", "))
}

// CubeVpctSQL renders the vertical percentage query as a percentage cube:
// the GROUP BY wrapped in ROLLUP (CUBE for the single-dimension no-totals
// form) with a GROUPING marker column, so the result carries every lattice
// node from the finest grouping to the grand total.
func (q Query) CubeVpctSQL() string {
	if len(q.totals) == 0 {
		list := strings.Join(q.by, ", ")
		return fmt.Sprintf("SELECT %s, Vpct(%s), GROUPING(%s) FROM %s GROUP BY CUBE(%s)",
			list, q.measure, list, q.dataset, list)
	}
	all := append(append([]string{}, q.totals...), q.by...)
	list := strings.Join(all, ", ")
	return fmt.Sprintf("SELECT %s, Vpct(%s BY %s), GROUPING(%s) FROM %s GROUP BY ROLLUP(%s)",
		list, q.measure, strings.Join(q.by, ", "), list, q.dataset, list)
}

// CubeHpctSQL renders the horizontal percentage query with its GROUP BY
// wrapped in ROLLUP, adding subtotal and grand-total rows to the cross-tab.
// The no-totals form has no GROUP BY to roll up and returns "".
func (q Query) CubeHpctSQL() string {
	if len(q.totals) == 0 {
		return ""
	}
	list := strings.Join(q.totals, ", ")
	return fmt.Sprintf("SELECT %s, Hpct(%s BY %s), GROUPING(%s) FROM %s GROUP BY ROLLUP(%s)",
		list, q.measure, strings.Join(q.by, ", "), list, q.dataset, list)
}

// PrimaryQueries are the eight queries of Tables 4, 5 and 6.
func (s *Suite) PrimaryQueries() []Query {
	return []Query{
		{dataset: "employee", measure: "salary", by: []string{"gender"}},
		{dataset: "employee", measure: "salary", totals: []string{"marstatus"}, by: []string{"gender"}},
		{dataset: "employee", measure: "salary", totals: []string{"educat", "marstatus"}, by: []string{"gender"}},
		{dataset: "employee", measure: "salary", totals: []string{"age", "marstatus"}, by: []string{"gender", "educat"}},
		{dataset: "sales", measure: "salesAmt", by: []string{"dweek"}},
		{dataset: "sales", measure: "salesAmt", totals: []string{"dweek"}, by: []string{"monthNo"}},
		{dataset: "sales", measure: "salesAmt", totals: []string{"dweek", "monthNo"}, by: []string{"dept"}},
		{dataset: "sales", measure: "salesAmt", totals: []string{"dweek", "monthNo"}, by: []string{"dept", "store"}},
	}
}

// CompanionQueries are the seventeen rows of the companion paper's Table 3:
// five census queries and six transactionLine queries at each size.
func (s *Suite) CompanionQueries() []Query {
	var out []Query
	out = append(out,
		Query{dataset: "census", measure: "dIncome", by: []string{"iSchool"}},
		Query{dataset: "census", measure: "dIncome", by: []string{"iClass"}},
		Query{dataset: "census", measure: "dIncome", by: []string{"iMarital"}},
		Query{dataset: "census", measure: "dIncome", totals: []string{"dAge"}, by: []string{"iMarital"}},
		Query{dataset: "census", measure: "dIncome", totals: []string{"dAge", "iClass"}, by: []string{"iSchool", "iSex"}},
	)
	for _, ds := range []string{"trans1", "trans2"} {
		out = append(out,
			Query{dataset: ds, measure: "salesAmt", by: []string{"regionId"}},
			Query{dataset: ds, measure: "salesAmt", by: []string{"monthNo"}},
			Query{dataset: ds, measure: "salesAmt", by: []string{"subdeptId"}},
			Query{dataset: ds, measure: "salesAmt", totals: []string{"monthNo"}, by: []string{"dayOfWeekNo"}},
			Query{dataset: ds, measure: "salesAmt", totals: []string{"deptId"}, by: []string{"dayOfWeekNo", "monthNo"}},
			Query{dataset: ds, measure: "salesAmt", totals: []string{"deptId", "storeId"}, by: []string{"dayOfWeekNo", "monthNo"}},
		)
	}
	return out
}

// bestVpct is the paper's recommended vertical strategy.
func bestVpct() core.Options {
	return core.Options{Vpct: core.VpctOptions{SubkeyIndexes: true}}
}

// AdviseHpct asks the planner's advisor how to evaluate q's Hpct form. It
// scans F, so callers run it outside the timed region.
func (s *Suite) AdviseHpct(q Query) (core.Options, error) {
	sel, err := parseSelect(q.HpctSQL())
	if err != nil {
		return core.Options{}, err
	}
	return s.Planner.Advise(sel)
}

// ensureFor loads only the data sets that filtered-in queries reference.
func (s *Suite) ensureFor(queries []Query) error {
	need := map[string]bool{}
	for _, q := range queries {
		if !s.skipQuery(q.Label()) {
			need[q.dataset] = true
		}
	}
	for ds := range need {
		if err := s.Ensure(ds); err != nil {
			return err
		}
	}
	return nil
}

// RunTable4 regenerates Table 4: vertical percentage optimization
// strategies. Columns: (1) the best strategy; (2) without the identical
// subkey indexes on Fj/Fk; (3) UPDATE-based FV instead of INSERT; (4)
// coarse totals Fj computed from F instead of from Fk.
func (s *Suite) RunTable4() (*Table, error) {
	if err := s.ensureFor(s.PrimaryQueries()); err != nil {
		return nil, err
	}
	strategies := []core.Options{
		bestVpct(),
		{Vpct: core.VpctOptions{SubkeyIndexes: false}},
		{Vpct: core.VpctOptions{SubkeyIndexes: true, UseUpdate: true}},
		{Vpct: core.VpctOptions{SubkeyIndexes: true, FjFromF: true}},
	}
	t := &Table{
		Title:  "Table 4: query optimizations for Vpct()",
		Note:   "(1) best  (2) no subkey indexes  (3) UPDATE instead of INSERT  (4) Fj from F",
		Header: []string{"(1) best", "(2) noidx", "(3) update", "(4) FjFromF"},
	}
	for _, q := range s.PrimaryQueries() {
		if s.skipQuery(q.Label()) {
			continue
		}
		row := Row{Label: q.Label()}
		for _, opts := range strategies {
			d, err := s.TimeQuery(q.VpctSQL(), opts)
			if err != nil {
				return nil, err
			}
			row.Times = append(row.Times, d)
		}
		t.Rows = append(t.Rows, row)
		s.logf("table4 %-45s done\n", q.Label())
	}
	return t, nil
}

// RunTableParallel regenerates the parallel-speedup experiment in the
// Table 4/5 layout: each primary query's best Vpct and Hpct strategies run
// sequentially (P=1) and with the partitioned parallel aggregation path at
// P = GOMAXPROCS. Results are identical across columns by construction (the
// differential harness proves it); only the wall time moves.
func (s *Suite) RunTableParallel() (*Table, error) {
	if err := s.ensureFor(s.PrimaryQueries()); err != nil {
		return nil, err
	}
	n := runtime.GOMAXPROCS(0)
	t := &Table{
		Title: "Parallel partitioned aggregation: sequential vs P=" + fmt.Sprint(n),
		Note:  "best Vpct and Hpct strategies; P=N partitions every Fk/Fj/FH aggregation scan",
		Header: []string{
			"Vpct P=1", fmt.Sprintf("Vpct P=%d", n),
			"Hpct P=1", fmt.Sprintf("Hpct P=%d", n),
		},
	}
	for _, q := range s.PrimaryQueries() {
		if s.skipQuery(q.Label()) {
			continue
		}
		row := Row{Label: q.Label()}
		vseq, vpar := bestVpct(), bestVpct()
		vseq.Parallelism, vpar.Parallelism = 1, n
		hseq, err := s.AdviseHpct(q)
		if err != nil {
			return nil, err
		}
		hpar := hseq
		hseq.Parallelism, hpar.Parallelism = 1, n
		for _, run := range []struct {
			sql  string
			opts core.Options
		}{
			{q.VpctSQL(), vseq}, {q.VpctSQL(), vpar},
			{q.HpctSQL(), hseq}, {q.HpctSQL(), hpar},
		} {
			d, err := s.TimeQuery(run.sql, run.opts)
			if err != nil {
				return nil, err
			}
			row.Times = append(row.Times, d)
		}
		t.Rows = append(t.Rows, row)
		s.logf("parallel %-45s done\n", q.Label())
	}
	return t, nil
}

// RunTable5 regenerates Table 5: horizontal percentage strategies —
// computing FH from FV versus directly from F.
func (s *Suite) RunTable5() (*Table, error) {
	if err := s.ensureFor(s.PrimaryQueries()); err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Table 5: query optimization strategies for Hpct()",
		Header: []string{"from FV", "from F"},
	}
	fromFV := core.Options{Hpct: core.HpctOptions{FromFV: true}}
	fromF := core.Options{}
	for _, q := range s.PrimaryQueries() {
		if s.skipQuery(q.Label()) {
			continue
		}
		row := Row{Label: q.Label()}
		for _, opts := range []core.Options{fromFV, fromF} {
			d, err := s.TimeQuery(q.HpctSQL(), opts)
			if err != nil {
				return nil, err
			}
			row.Times = append(row.Times, d)
		}
		t.Rows = append(t.Rows, row)
		s.logf("table5 %-45s done\n", q.Label())
	}
	return t, nil
}

// RunTable6 regenerates Table 6: the best Vpct and Hpct strategies against
// the ANSI OLAP window-function formulation.
func (s *Suite) RunTable6() (*Table, error) {
	if err := s.ensureFor(s.PrimaryQueries()); err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Table 6: percentage aggregations versus OLAP extensions",
		Header: []string{"Vpct", "Hpct", "OLAP"},
	}
	for _, q := range s.PrimaryQueries() {
		if s.skipQuery(q.Label()) {
			continue
		}
		row := Row{Label: q.Label()}
		d, err := s.TimeQuery(q.VpctSQL(), bestVpct())
		if err != nil {
			return nil, err
		}
		row.Times = append(row.Times, d)
		hopts, err := s.AdviseHpct(q)
		if err != nil {
			return nil, err
		}
		d, err = s.TimeQuery(q.HpctSQL(), hopts)
		if err != nil {
			return nil, err
		}
		row.Times = append(row.Times, d)
		olap, err := s.OLAPSQL(q)
		if err != nil {
			return nil, err
		}
		d, err = s.TimeSQL(olap)
		if err != nil {
			return nil, err
		}
		row.Times = append(row.Times, d)
		t.Rows = append(t.Rows, row)
		s.logf("table6 %-45s done\n", q.Label())
	}
	return t, nil
}

// OLAPSQL generates the window-function baseline for a Query.
func (s *Suite) OLAPSQL(q Query) (string, error) {
	sel, err := parseSelect(q.VpctSQL())
	if err != nil {
		return "", err
	}
	return s.Planner.OLAPEquivalent(sel)
}

// RunTableH3 regenerates the companion paper's Table 3: SPJ versus CASE,
// directly from F versus from FV, across census and both transactionLine
// sizes.
func (s *Suite) RunTableH3() (*Table, error) {
	if err := s.ensureFor(s.CompanionQueries()); err != nil {
		return nil, err
	}
	strategies := []core.Options{
		{Hagg: core.HaggOptions{Method: core.HaggSPJ}},
		{Hagg: core.HaggOptions{Method: core.HaggSPJ, FromFV: true}},
		{Hagg: core.HaggOptions{Method: core.HaggCASE}},
		{Hagg: core.HaggOptions{Method: core.HaggCASE, FromFV: true}},
	}
	t := &Table{
		Title:  "DMKD Table 3: horizontal aggregation strategies (SPJ vs CASE, from F vs from FV)",
		Header: []string{"SPJ/F", "SPJ/FV", "CASE/F", "CASE/FV"},
	}
	for _, q := range s.CompanionQueries() {
		if s.skipQuery(q.Label()) {
			continue
		}
		row := Row{Label: q.Label()}
		for _, opts := range strategies {
			d, err := s.TimeQuery(q.HaggSQL(), opts)
			if err != nil {
				return nil, err
			}
			row.Times = append(row.Times, d)
		}
		t.Rows = append(t.Rows, row)
		s.logf("tableH3 %-55s done\n", q.Label())
	}
	return t, nil
}

// RunAblationUpdate isolates the condition under which the paper observed
// the UPDATE-based FV construction losing badly: |FV| comparable to |F|.
// Grouping sales by its unique transactionId makes Fk as large as F, so
// the division phase — INSERT into a third table versus a bulk rewrite of
// Fk with journaling — dominates the plan.
func (s *Suite) RunAblationUpdate() (*Table, error) {
	if err := s.Ensure("sales"); err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: INSERT vs UPDATE for FV when |FV| ~ |F| (Vpct grouped by the unique transactionId)",
		Header: []string{"INSERT", "UPDATE"},
	}
	queries := []string{
		"SELECT transactionId, dweek, Vpct(salesAmt BY dweek) FROM sales GROUP BY transactionId, dweek",
		"SELECT transactionId, dweek, monthNo, Vpct(salesAmt BY dweek, monthNo) FROM sales GROUP BY transactionId, dweek, monthNo",
	}
	labels := []string{"sales dweek | transactionId", "sales dweek,monthNo | transactionId"}
	for i, q := range queries {
		row := Row{Label: labels[i]}
		d, err := s.TimeQuery(q, core.Options{Vpct: core.VpctOptions{SubkeyIndexes: true}})
		if err != nil {
			return nil, err
		}
		row.Times = append(row.Times, d)
		d, err = s.TimeQuery(q, core.Options{Vpct: core.VpctOptions{SubkeyIndexes: true, UseUpdate: true}})
		if err != nil {
			return nil, err
		}
		row.Times = append(row.Times, d)
		t.Rows = append(t.Rows, row)
		s.logf("ablation-update %-45s done\n", labels[i])
	}
	return t, nil
}

// RunAblationShared measures the paper's "shared summaries" future-work
// item: a batch of percentage queries over the same fine grouping computes
// the Fk aggregate once when sharing is on, versus once per query.
func (s *Suite) RunAblationShared() (*Table, error) {
	if err := s.Ensure("sales"); err != nil {
		return nil, err
	}
	// Three queries sharing the fine grouping (dweek, monthNo, dept) with
	// different BY lists.
	batch := []string{
		"SELECT dweek, monthNo, dept, Vpct(salesAmt BY dept) FROM sales GROUP BY dweek, monthNo, dept",
		"SELECT dweek, monthNo, dept, Vpct(salesAmt BY dweek) FROM sales GROUP BY dweek, monthNo, dept",
		"SELECT dweek, monthNo, dept, Vpct(salesAmt BY monthNo) FROM sales GROUP BY dweek, monthNo, dept",
	}
	execBatch := func() error {
		for _, q := range batch {
			plan, err := s.Planner.PlanSQL(q, bestVpct())
			if err != nil {
				return err
			}
			if _, err := s.Planner.ExecuteSteps(plan); err != nil {
				s.Planner.CleanupPlan(plan)
				return err
			}
			s.Planner.CleanupPlan(plan)
		}
		return nil
	}
	runBatch := func(share bool) (time.Duration, error) {
		if share {
			s.Planner.ShareSummaries(true)
			defer func() {
				s.Planner.FlushSummaries()
				s.Planner.ShareSummaries(false)
			}()
			// Warm untimed: the shared column measures the steady state the
			// cache promises (every summary a hit), not the first build —
			// which the independent column already prices.
			if err := execBatch(); err != nil {
				return 0, err
			}
		}
		runtime.GC()
		start := time.Now()
		if err := execBatch(); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}
	t := &Table{
		Title:  "Ablation: shared summaries across a 3-query batch over one fine grouping",
		Header: []string{"independent", "shared Fk"},
	}
	row := Row{Label: "sales 3×Vpct over (dweek,monthNo,dept)"}
	d, err := runBatch(false)
	if err != nil {
		return nil, err
	}
	row.Times = append(row.Times, d)
	d, err = runBatch(true)
	if err != nil {
		return nil, err
	}
	row.Times = append(row.Times, d)
	t.Rows = append(t.Rows, row)
	s.logf("ablation-shared done\n")
	return t, nil
}

// RunAblationPivot measures the paper's proposed query-optimizer change —
// replacing the O(N)-per-row CASE evaluation with an O(1) hash lookup — over
// the four sales Hpct queries: the CASE plan folded arm by arm (the reference
// fold, the paper's O(N) shape) and the same plan with the fold's dimension
// dispatch (the default). Both run on one worker, so the only variable is how
// a row finds its column.
func (s *Suite) RunAblationPivot() (*Table, error) {
	if err := s.Ensure("sales"); err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: CASE evaluation arm by arm vs dimension dispatch (Hpct direct from F, P=1)",
		Header: []string{"CASE arm-by-arm", "CASE dispatched"},
	}
	defer s.Eng.SetBatch(s.Eng.BatchEnabled())
	for _, q := range s.PrimaryQueries()[4:] {
		if s.skipQuery(q.Label()) {
			continue
		}
		row := Row{Label: q.Label()}
		for _, fold := range []bool{false, true} {
			s.Eng.SetBatch(fold)
			d, err := s.TimeQuery(q.HpctSQL(), core.Options{Parallelism: 1})
			if err != nil {
				return nil, err
			}
			row.Times = append(row.Times, d)
		}
		t.Rows = append(t.Rows, row)
		s.logf("ablation %-45s done\n", q.Label())
	}
	return t, nil
}
