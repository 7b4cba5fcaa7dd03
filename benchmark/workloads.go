package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// sizes scales the generated data and the statement mixes. The benchmark runs
// at full; the self-test runs the same code at tiny.
type sizes struct {
	employee, sales, regions, employeeS int
	// salesHpct is the sales table of hpct_case: a third of the rows, so
	// that its second-long CASE folds give three times the samples per run.
	salesHpct             int
	insertRows, eventRows int
	// mixScale divides the per-pass statement counts of the two mixes.
	mixScale int
	// setupBudget is how many seconds of set-up repeats a run may add.
	setupBudget float64
}

var (
	full = sizes{employee: 100_000, sales: 300_000, salesHpct: 100_000, regions: 200_000, employeeS: 20_000,
		insertRows: 100, eventRows: 20, mixScale: 1, setupBudget: 4}
	tiny = sizes{employee: 1_000, sales: 2_000, salesHpct: 2_000, regions: 1_000, employeeS: 1_000,
		insertRows: 10, eventRows: 5, mixScale: 10}
)

type opKind uint8

const (
	opQuery opKind = iota
	opInsert
	opUpdate
	opPing
)

// stmt is one generated statement: its template (the unit latency medians are
// taken over), the SQL text, and what the oracle needs to check or track it.
type stmt struct {
	tpl  string
	op   opKind
	sql  string
	spec *spec // opQuery: how the oracle verifies the result
	// opInsert: the table and rows appended. opUpdate: row index and value.
	table  string
	rows   [][]int64
	updRow int
	updVal int64
}

// workload is one traffic mix. pass generates client c's next pass of
// statements from that client's stream; the stream depends only on the seed.
type workload struct {
	name    string
	cache   bool // summary cache on
	wire    bool // through server.Client on loopback
	clients []string
	// heapPasses is how many passes every run makes at least, and the window
	// heap_mb is averaged over: about half of what the parent commit does in
	// one run on the reference box.
	heapPasses int
	tables     func(seed int64, sz sizes) []*table
	pass       func(st *stream, client int) []stmt
	// verify lists one statement per read template (every filter literal
	// for the filtered ones) for the full oracle check after a phase.
	verify func(st *stream) []stmt
}

// stream is one client's statement generator state.
type stream struct {
	rng    *rand.Rand
	sz     sizes
	nextID int64 // next fresh row id for appends
	nrows  int   // rows of the update target at load time
}

func query(tpl string, s spec) stmt {
	return stmt{tpl: tpl, op: opQuery, sql: s.sql(), spec: &s}
}

func insertSQL(table string, rows [][]int64) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO " + table + " VALUES ")
	for i, r := range rows {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteByte('(')
		for j, v := range r {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", v)
		}
		sb.WriteByte(')')
	}
	return sb.String()
}

// The eight primary queries of the paper's Tables 4–6 as (totals | by).
var primary = []spec{
	{table: "employee", measure: "salary", by: []string{"gender"}},
	{table: "employee", measure: "salary", totals: []string{"marstatus"}, by: []string{"gender"}},
	{table: "employee", measure: "salary", totals: []string{"educat", "marstatus"}, by: []string{"gender"}},
	{table: "employee", measure: "salary", totals: []string{"age", "marstatus"}, by: []string{"gender", "educat"}},
	{table: "sales", measure: "salesAmt", by: []string{"dweek"}},
	{table: "sales", measure: "salesAmt", totals: []string{"dweek"}, by: []string{"monthNo"}},
	{table: "sales", measure: "salesAmt", totals: []string{"dweek", "monthNo"}, by: []string{"dept"}},
	{table: "sales", measure: "salesAmt", totals: []string{"dweek", "monthNo"}, by: []string{"dept", "store"}},
}

// The three Vpct queries on the VARCHAR/FLOAT/NULL data.
var regional = []spec{
	{table: "regions", measure: "amount", by: []string{"state"}},
	{table: "regions", measure: "amount", totals: []string{"state"}, by: []string{"city"}},
	{table: "regions", measure: "amount", totals: []string{"state"}, by: []string{"city", "dweek"}},
}

func as(kind specKind, s spec) spec {
	s.kind = kind
	return s
}

func paperTables(seed int64, sz sizes) []*table {
	return []*table{genEmployee("employee", sz.employee, seed), genSales("sales", sz.sales, seed+1)}
}

func vpctScanStmts() []stmt {
	var out []stmt
	for i, s := range primary {
		out = append(out, query(fmt.Sprintf("vpct_q%d", i+1), as(specVpct, s)))
	}
	for i, s := range regional {
		out = append(out, query(fmt.Sprintf("vpct_r%d", i+1), as(specVpct, s)))
	}
	return out
}

func hpctCaseStmts() []stmt {
	var out []stmt
	// q8 (500 CASE terms, ≈ 10 s per statement) would give under four
	// samples per run and is left out.
	for i, s := range primary[:7] {
		out = append(out, query(fmt.Sprintf("hpct_q%d", i+1), as(specHpct, s)))
	}
	return out
}

// hot_mix read templates and how often each appears in one pass.
var (
	hotWhere = spec{kind: specVpct, table: "sales", measure: "salesAmt", totals: []string{"dweek"}, by: []string{"dept"}, filterCol: "monthNo"}
	hotReads = []struct {
		tpl   string
		spec  spec
		count int
	}{
		{"hit_q1", as(specVpct, primary[0]), 14},
		{"hit_q2", as(specVpct, primary[1]), 14},
		{"hit_q3", as(specVpct, primary[2]), 14},
		{"hit_q5", as(specVpct, primary[4]), 14},
		{"hit_q6", as(specVpct, primary[5]), 14},
		{"hit_q4_large", as(specVpct, primary[3]), 20},
		{"hit_q7_large", as(specVpct, primary[6]), 20},
		{"cube_employee", as(specCube, primary[2]), 15},
		{"cube_sales", as(specCube, primary[5]), 15},
		{"plain_agg", spec{kind: specAgg, table: "sales", measure: "salesAmt", by: []string{"dept"}}, 11},
	}
)

const (
	hotWhereCount  = 24
	hotInsertCount = 24
)

func scaled(n, scale int) int {
	if n/scale < 1 {
		return 1
	}
	return n / scale
}

// hotMixPass is one pass of the cached read-and-write mix: fixed composition,
// seeded order and literals, so every seed does the same amount of each kind
// of work.
func hotMixPass(st *stream, _ int) []stmt {
	var out []stmt
	for _, r := range hotReads {
		for i := 0; i < scaled(r.count, st.sz.mixScale); i++ {
			out = append(out, query(r.tpl, r.spec))
		}
	}
	for i := 0; i < scaled(hotWhereCount, st.sz.mixScale); i++ {
		s := hotWhere
		s.filterVal = int64(st.rng.Intn(cardMonth))
		out = append(out, query("where_month", s))
	}
	for i := 0; i < scaled(hotInsertCount, st.sz.mixScale); i++ {
		rows := make([][]int64, st.sz.insertRows)
		for j := range rows {
			rows[j] = salesRow(st.rng, st.nextID)
			st.nextID++
		}
		out = append(out, stmt{tpl: "insert_sales", op: opInsert, table: "sales", rows: rows, sql: insertSQL("sales", rows)})
	}
	row, val := st.rng.Intn(st.nrows), int64(1+st.rng.Intn(500))
	out = append(out, stmt{tpl: "update_sales", op: opUpdate, table: "sales", updRow: row, updVal: val,
		sql: fmt.Sprintf("UPDATE sales SET salesAmt = %d WHERE transactionId = %d", val, row+1)})
	st.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func hotMixVerify(*stream) []stmt {
	var out []stmt
	for _, r := range hotReads {
		out = append(out, query(r.tpl, r.spec))
	}
	for k := 0; k < cardMonth; k++ {
		s := hotWhere
		s.filterVal = int64(k)
		out = append(out, query("where_month", s))
	}
	return out
}

// serve_mix: tiny percentage queries over the demo tables, one large-result
// Vpct, a filtered fetch, a plain aggregate and ping for tenant dash; tenant
// etl appends to events between small reads.
var (
	demoVpct   = spec{kind: specVpct, table: "demo_sales", measure: "salesAmt", totals: []string{"state"}, by: []string{"city"}}
	demoHpct   = spec{kind: specHpct, table: "daily", measure: "salesAmt", totals: []string{"store"}, by: []string{"dweek"}}
	serveVpct  = spec{kind: specVpct, table: "employee_s", measure: "salary", totals: []string{"age", "marstatus"}, by: []string{"gender", "educat"}}
	serveFetch = spec{kind: specFetch, table: "employee_s", measure: "salary", filterCol: "age"}
	serveAgg   = spec{kind: specAgg, table: "employee_s", measure: "salary", by: []string{"educat"}}
)

func serveTables(seed int64, sz sizes) []*table {
	return []*table{genDemoSales("demo_sales"), genDaily("daily"),
		genEmployee("employee_s", sz.employeeS, seed), genEvents("events")}
}

func repeat(out []stmt, s stmt, n int) []stmt {
	for i := 0; i < n; i++ {
		out = append(out, s)
	}
	return out
}

// serveMixPass is one pass of a tenant's stream. The two passes of a round
// start together (see env.run); etl's is sized to last about as long as
// dash's at the parent commit, so the connections overlap for the whole round.
func serveMixPass(st *stream, client int) []stmt {
	var out []stmt
	sc := st.sz.mixScale
	ping := stmt{tpl: "ping", op: opPing}
	if client == 0 { // dash
		out = repeat(out, query("demo_vpct", demoVpct), scaled(25, sc))
		out = repeat(out, query("demo_hpct", demoHpct), scaled(25, sc))
		out = repeat(out, query("vpct_large", serveVpct), scaled(2, sc))
		out = repeat(out, query("agg_educat", serveAgg), scaled(6, sc))
		out = repeat(out, ping, scaled(10, sc))
		for i := 0; i < scaled(6, sc); i++ {
			s := serveFetch
			s.filterVal = int64(st.rng.Intn(100))
			out = append(out, query("fetch_age", s))
		}
	} else { // etl
		out = repeat(out, query("demo_vpct", demoVpct), scaled(100, sc))
		out = repeat(out, query("demo_hpct", demoHpct), scaled(100, sc))
		out = repeat(out, ping, scaled(30, sc))
		for i := 0; i < scaled(100, sc); i++ {
			rows := make([][]int64, st.sz.eventRows)
			for j := range rows {
				rows[j] = []int64{st.nextID, int64(st.rng.Intn(8)), int64(1 + st.rng.Intn(1000))}
				st.nextID++
			}
			out = append(out, stmt{tpl: "insert_events", op: opInsert, table: "events", rows: rows, sql: insertSQL("events", rows)})
		}
	}
	st.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func serveMixVerify(st *stream) []stmt {
	fetch := serveFetch
	fetch.filterVal = int64(st.rng.Intn(100))
	return []stmt{query("demo_vpct", demoVpct), query("demo_hpct", demoHpct), query("vpct_large", serveVpct),
		query("agg_educat", serveAgg), query("fetch_age", fetch),
		query("events_total", spec{kind: specAgg, table: "events", measure: "amt", by: []string{"kind"}})}
}

func static(stmts func() []stmt) (func(*stream, int) []stmt, func(*stream) []stmt) {
	return func(*stream, int) []stmt { return stmts() }, func(*stream) []stmt { return stmts() }
}

func workloads() []*workload {
	vp, vv := static(vpctScanStmts)
	hp, hv := static(hpctCaseStmts)
	return []*workload{
		{name: "vpct_scan", clients: []string{"embedded"}, heapPasses: 16, pass: vp, verify: vv,
			tables: func(seed int64, sz sizes) []*table {
				return append(paperTables(seed, sz), genRegions("regions", sz.regions, seed+2))
			}},
		{name: "hpct_case", clients: []string{"embedded"}, heapPasses: 12, pass: hp, verify: hv,
			tables: func(seed int64, sz sizes) []*table {
				sz.sales = sz.salesHpct
				return paperTables(seed, sz)
			}},
		{name: "hot_mix", cache: true, clients: []string{"embedded"}, heapPasses: 12, pass: hotMixPass, verify: hotMixVerify, tables: paperTables},
		{name: "serve_mix", wire: true, clients: []string{"dash", "etl"}, heapPasses: 40, pass: serveMixPass, verify: serveMixVerify, tables: serveTables},
	}
}

// templates lists the workload's template names, sorted, for reporting.
func (w *workload) templates() []string {
	seen := map[string]bool{}
	var out []string
	for c := range w.clients {
		st := &stream{rng: rand.New(rand.NewSource(1)), sz: tiny, nrows: 1}
		for _, s := range w.pass(st, c) {
			if !seen[s.tpl] {
				seen[s.tpl] = true
				out = append(out, s.tpl)
			}
		}
	}
	sort.Strings(out)
	return out
}
