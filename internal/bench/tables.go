package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sqlparse"
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
	// group, when set, is the vertical form's GROUP BY order where totals
	// then by would not do: the summary cache keys on it, so a batch meant
	// to share one Fk must spell the fine grouping the same way.
	group []string
}

func (q Query) label() string {
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
	all := q.group
	if all == nil {
		all = append(append([]string{}, q.totals...), q.by...)
	}
	return fmt.Sprintf("SELECT %s, Vpct(%s BY %s) FROM %s GROUP BY %s",
		strings.Join(all, ", "), q.measure, strings.Join(q.by, ", "),
		q.dataset, strings.Join(all, ", "))
}

// HpctSQL renders the horizontal percentage query.
func (q Query) HpctSQL() string {
	return q.horizontalSQL("Hpct")
}

// haggSQL renders the companion paper's horizontal aggregation query.
func (q Query) haggSQL() string {
	return q.horizontalSQL("sum")
}

func (q Query) horizontalSQL(fn string) string {
	if len(q.totals) == 0 {
		return fmt.Sprintf("SELECT %s(%s BY %s) FROM %s",
			fn, q.measure, strings.Join(q.by, ", "), q.dataset)
	}
	return fmt.Sprintf("SELECT %s, %s(%s BY %s) FROM %s GROUP BY %s",
		strings.Join(q.totals, ", "), fn, q.measure, strings.Join(q.by, ", "),
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
func PrimaryQueries() []Query {
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

// companionQueries are the seventeen rows of the companion paper's Table 3:
// five census queries and six transactionLine queries at each size.
func companionQueries() []Query {
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

// Variant is what a column changes around its cells besides the plan
// options; the zero value changes nothing. A variant flips a planner-wide
// toggle, which is put back where it was once the cell is timed.
type Variant int

const (
	// sharedWarm runs with summary sharing on and the row executed once
	// untimed first, so the cell measures the steady state the cache promises
	// (every summary a hit), not the first build — which the column beside
	// it already prices.
	sharedWarm Variant = iota + 1
)

// Column is one strategy column of an experiment.
type Column struct {
	Header string
	// SQL renders the formulation of a row's query the column times:
	// Query.VpctSQL, Query.HpctSQL or Query.haggSQL.
	SQL func(Query) string
	// OLAP times the window-function rewrite of that query, run as plain
	// SQL, in place of its percentage plan.
	OLAP bool
	// Opts is the strategy the column's plans are generated under. With
	// Advised set the strategy is the advisor's for each row's query (asked
	// outside the timed region: it scans F) and Opts contributes only its
	// Parallelism.
	Opts    core.Options
	Advised bool
	Variant Variant
}

// QueryRow is one row of an experiment: a label and the queries each of its
// cells times together — one for the papers' tables, a batch where the
// experiment is about what a batch shares.
type QueryRow struct {
	Label   string
	Queries []Query
}

// Experiment is one table of the evaluation, declared as data: query rows ×
// strategy columns. Suite.Run regenerates it.
type Experiment struct {
	Key     string // pctbench -table value and Go sub-benchmark name
	Title   string
	Note    string
	Rows    []QueryRow
	Columns []Column
}

// rowsOf makes one row per query, labelled by it.
func rowsOf(queries []Query) []QueryRow {
	rows := make([]QueryRow, len(queries))
	for i, q := range queries {
		rows[i] = QueryRow{Label: q.label(), Queries: []Query{q}}
	}
	return rows
}

// Experiments declares the reproduction: Tables 4, 5 and 6 of the paper, the
// companion paper's Table 3, two of the ablations EXPERIMENTS.md reports —
// the third, CASE arm by arm, times the engine's test oracle
// (BenchmarkHpctArmByArm in internal/engine) — and the sequential-versus-
// parallel table. Every strategy a table compares is
// written here and nowhere else; cmd/pctbench and the root Go benchmarks
// iterate this list.
func Experiments() []Experiment {
	n := runtime.GOMAXPROCS(0)
	pn := fmt.Sprintf("P=%d", n)
	// best is the paper's recommended vertical strategy.
	best := core.Options{Vpct: core.VpctOptions{SubkeyIndexes: true}}
	update := core.Options{Vpct: core.VpctOptions{SubkeyIndexes: true, UseUpdate: true}}
	workers := func(o core.Options, p int) core.Options { o.Parallelism = p; return o }
	primary, companion := rowsOf(PrimaryQueries()), rowsOf(companionQueries())
	sales := func(by string, totals ...string) Query {
		return Query{dataset: "sales", measure: "salesAmt", totals: totals, by: strings.Split(by, ",")}
	}
	// Three queries sharing the fine grouping (dweek, monthNo, dept) with
	// different BY lists.
	fine := []string{"dweek", "monthNo", "dept"}
	batch := []Query{sales("dept", "dweek", "monthNo"), sales("dweek", "monthNo", "dept"), sales("monthNo", "dweek", "dept")}
	for i := range batch {
		batch[i].group = fine
	}

	return []Experiment{{
		Key:   "4",
		Title: "Table 4: query optimizations for Vpct()",
		Note:  "(1) best  (2) no subkey indexes  (3) UPDATE instead of INSERT  (4) Fj from F",
		Rows:  primary,
		Columns: []Column{
			{Header: "(1) best", SQL: Query.VpctSQL, Opts: best},
			{Header: "(2) noidx", SQL: Query.VpctSQL, Opts: core.Options{Vpct: core.VpctOptions{SubkeyIndexes: false}}},
			{Header: "(3) update", SQL: Query.VpctSQL, Opts: update},
			{Header: "(4) FjFromF", SQL: Query.VpctSQL, Opts: core.Options{Vpct: core.VpctOptions{SubkeyIndexes: true, FjFromF: true}}},
		},
	}, {
		Key:   "5",
		Title: "Table 5: query optimization strategies for Hpct()",
		Rows:  primary,
		Columns: []Column{
			{Header: "from FV", SQL: Query.HpctSQL, Opts: core.Options{Hpct: core.HpctOptions{FromFV: true}}},
			{Header: "from F", SQL: Query.HpctSQL},
		},
	}, {
		Key:   "6",
		Title: "Table 6: percentage aggregations versus OLAP extensions",
		Rows:  primary,
		Columns: []Column{
			{Header: "Vpct", SQL: Query.VpctSQL, Opts: best},
			{Header: "Hpct", SQL: Query.HpctSQL, Advised: true},
			{Header: "OLAP", SQL: Query.VpctSQL, OLAP: true},
		},
	}, {
		Key:   "h3",
		Title: "DMKD Table 3: horizontal aggregation strategies (SPJ vs CASE, from F vs from FV)",
		Rows:  companion,
		Columns: []Column{
			{Header: "SPJ/F", SQL: Query.haggSQL, Opts: core.Options{Hagg: core.HaggOptions{Method: core.HaggSPJ}}},
			{Header: "SPJ/FV", SQL: Query.haggSQL, Opts: core.Options{Hagg: core.HaggOptions{Method: core.HaggSPJ, FromFV: true}}},
			{Header: "CASE/F", SQL: Query.haggSQL, Opts: core.Options{Hagg: core.HaggOptions{Method: core.HaggCASE}}},
			{Header: "CASE/FV", SQL: Query.haggSQL, Opts: core.Options{Hagg: core.HaggOptions{Method: core.HaggCASE, FromFV: true}}},
		},
	}, {
		// The condition under which the paper observed the UPDATE-based FV
		// construction losing badly: grouping sales by its unique
		// transactionId makes Fk as large as F, so the division phase —
		// INSERT into a third table versus an in-place UPDATE of every Fk
		// row — dominates the plan.
		Key:   "update",
		Title: "Ablation: INSERT vs UPDATE for FV when |FV| ~ |F| (Vpct grouped by the unique transactionId)",
		Rows:  rowsOf([]Query{sales("dweek", "transactionId"), sales("dweek,monthNo", "transactionId")}),
		Columns: []Column{
			{Header: "INSERT", SQL: Query.VpctSQL, Opts: best},
			{Header: "UPDATE", SQL: Query.VpctSQL, Opts: update},
		},
	}, {
		// The paper's "shared summaries" future-work item: the batch computes
		// the Fk aggregate once when sharing is on, versus once per query.
		Key:   "shared",
		Title: "Ablation: shared summaries across a 3-query batch over one fine grouping",
		Rows:  []QueryRow{{Label: "sales 3×Vpct over (dweek,monthNo,dept)", Queries: batch}},
		Columns: []Column{
			{Header: "independent", SQL: Query.VpctSQL, Opts: best},
			{Header: "shared Fk", SQL: Query.VpctSQL, Opts: best, Variant: sharedWarm},
		},
	}, {
		// Results are identical across columns by construction (the
		// differential harness proves it); only the wall time moves.
		Key:   "parallel",
		Title: "Parallel partitioned aggregation: sequential vs " + pn,
		Note:  "best Vpct and Hpct strategies; P=N partitions every Fk/Fj/FH aggregation scan",
		Rows:  primary,
		Columns: []Column{
			{Header: "Vpct P=1", SQL: Query.VpctSQL, Opts: workers(best, 1)},
			{Header: "Vpct " + pn, SQL: Query.VpctSQL, Opts: workers(best, n)},
			{Header: "Hpct P=1", SQL: Query.HpctSQL, Opts: core.Options{Parallelism: 1}, Advised: true},
			{Header: "Hpct " + pn, SQL: Query.HpctSQL, Opts: core.Options{Parallelism: n}, Advised: true},
		},
	}}
}

// stmtFor loads q's data set and resolves what column c runs for it: the SQL
// text and, unless it is the OLAP rewrite, the options its plan is generated
// under.
func (s *Suite) stmtFor(q Query, c Column) (stmt, error) {
	st := stmt{sql: c.SQL(q), opts: c.Opts, plain: c.OLAP}
	if err := s.Ensure(q.dataset); err != nil {
		return st, err
	}
	if !c.OLAP && !c.Advised {
		return st, nil
	}
	parsed, err := sqlparse.Parse(st.sql)
	if err != nil {
		return st, err
	}
	sel := parsed.(*sqlparse.Select) // Query renders nothing else
	if c.OLAP {
		st.sql, err = s.Planner.OLAPEquivalent(sel)
	} else {
		st.opts, err = s.Planner.Advise(sel)
		st.opts.Parallelism = c.Opts.Parallelism
	}
	return st, err
}

// Prepare does for column c over rows everything the papers' timings leave
// out: it loads the rows' data sets, fixes each statement's text and options
// (asking the advisor, rewriting to OLAP) and, for sharedWarm, turns summary
// sharing on and runs every row once so that each summary is a hit. It returns one function per row, which times that row's cell as
// the mean of Cfg.Reps runs, and restore, which puts the toggle back and is
// called once the cells are timed.
func (s *Suite) Prepare(c Column, rows []QueryRow) (cells []func() (time.Duration, error), restore func(), err error) {
	for _, r := range rows {
		var batch []stmt
		for _, q := range r.Queries {
			st, err := s.stmtFor(q, c)
			if err != nil {
				return nil, nil, err
			}
			batch = append(batch, st)
		}
		cells = append(cells, func() (time.Duration, error) { return s.timeBatch(batch) })
	}

	restore = func() {}
	if c.Variant == sharedWarm {
		was := s.Planner.SharesSummaries()
		s.Planner.ShareSummaries(true)
		restore = func() {
			s.Planner.FlushSummaries()
			s.Planner.ShareSummaries(was)
		}
		for _, warm := range cells {
			if _, err := warm(); err != nil {
				restore()
				return nil, nil, err
			}
		}
	}
	return cells, restore, nil
}

// Run regenerates one experiment: every row the label filter lets through,
// timed under every column, row by row.
func (s *Suite) Run(exp Experiment) (*Table, error) {
	t := &Table{Title: exp.Title, Note: exp.Note}
	for _, c := range exp.Columns {
		t.Header = append(t.Header, c.Header)
	}
	for _, r := range exp.Rows {
		if s.Cfg.LabelFilter != "" && !strings.Contains(r.Label, s.Cfg.LabelFilter) {
			continue
		}
		row := Row{Label: r.Label}
		for _, c := range exp.Columns {
			cells, restore, err := s.Prepare(c, []QueryRow{r})
			if err != nil {
				return nil, err
			}
			d, err := cells[0]()
			restore()
			if err != nil {
				return nil, err
			}
			row.Times = append(row.Times, d)
		}
		t.Rows = append(t.Rows, row)
		s.logf("%s %-45s done\n", exp.Key, r.Label)
	}
	return t, nil
}
