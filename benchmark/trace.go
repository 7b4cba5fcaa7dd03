package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sqlparse"
	"repro/internal/value"
)

// The traced run gives the per-layer numbers. The harness records its own
// spans around each call into a layer's public functions (the decomposed
// path); below the step boundary, where it cannot call in, it reads the span
// tree the product returns from ExecuteTracedCtx and the counters of
// db.MetricsJSON. End-to-end numbers never come from here.

// span is one harness span: a layer boundary crossed for one statement.
type span struct {
	Name    string `json:"name"`
	Stmt    int    `json:"stmt"`
	Parent  int    `json:"parent"` // index into the span list, -1 for a root
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	stmt  int
	rows  map[string]int // result rows per template, for per-row wire cost
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Stmt: t.stmt, Parent: parent, StartNs: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].EndNs = int64(time.Since(t.t0)) }

// totals sums span durations by name, in µs, and counts spans by name.
func (t *tracer) totals() (us, n map[string]float64) {
	us, n = map[string]float64{}, map[string]float64{}
	for _, s := range t.spans {
		us[s.Name] += float64(s.EndNs-s.StartNs) / 1e3
		n[s.Name]++
	}
	return us, n
}

// best is the shortest span of the given name, in ns.
func (t *tracer) best(name string) float64 {
	b := math.Inf(1)
	for _, s := range t.spans {
		if s.Name == name {
			b = math.Min(b, float64(s.EndNs-s.StartNs))
		}
	}
	return b
}

// defaultOptions are the strategies pctagg.Open() uses.
var defaultOptions = core.Options{
	Vpct: core.VpctOptions{SubkeyIndexes: true},
	Hpct: core.HpctOptions{Vpct: core.VpctOptions{SubkeyIndexes: true}},
}

func convert(res *engine.Result) [][]any {
	out := make([][]any, len(res.Rows))
	for i, row := range res.Rows {
		conv := make([]any, len(row))
		for j, v := range row {
			switch v.Kind() {
			case value.KindInt:
				conv[j] = v.Int()
			case value.KindFloat:
				conv[j] = v.Float()
			case value.KindString:
				conv[j] = v.Str()
			case value.KindBool:
				conv[j] = v.Bool()
			}
		}
		out[i] = conv
	}
	return out
}

// decomposed returns an executor that runs a statement the way pctagg.Query
// does, one public call per layer — sqlparse.Parse → Planner.Plan →
// ExecuteStepsCtx → final select → CleanupPlan → value conversion — with a
// harness span around each when tr is set. Over the wire it first sends the
// statement through the client, so the round trip and the embedded cost of
// the same SQL sit side by side; writes and pings go over the wire only.
func (e *env) decomposed(tr *tracer) execFn {
	in := func(name string, parent int, fn func()) {
		if tr == nil {
			fn()
			return
		}
		id := tr.begin(name, parent)
		fn()
		tr.end(id)
	}
	ctx := context.Background()
	eng := e.db.Engine()
	return func(c int, s *stmt) (data [][]any, err error) {
		root := -1
		if tr != nil {
			tr.stmt++
		}
		if e.w.wire {
			in("server/"+s.tpl, -1, func() { data, err = e.execWire(c, s) })
			if err != nil || s.op != opQuery {
				return data, err
			}
		}
		if tr != nil {
			root = tr.begin("embedded/"+s.tpl, -1)
			defer tr.end(root)
		}
		if s.op != opQuery {
			in("engine/exec", root, func() { _, err = eng.ExecSQLCtxP(ctx, s.sql, 0) })
			return nil, err
		}
		var parsed sqlparse.Statement
		in("sqlparse/parse", root, func() { parsed, err = sqlparse.Parse(s.sql) })
		if err != nil {
			return nil, err
		}
		sel, ok := parsed.(*sqlparse.Select)
		if !ok {
			return nil, fmt.Errorf("benchmark: %q is not a SELECT", s.sql)
		}
		var plan *core.Plan
		in("core/plan", root, func() { plan, err = e.hp.Plan(sel, defaultOptions) })
		if err != nil {
			return nil, err
		}
		var res *engine.Result
		in("core/steps", root, func() { _, err = e.hp.ExecuteStepsCtx(ctx, plan) })
		if err == nil {
			in("core/final_select", root, func() { res, err = eng.ExecSQLCtxP(ctx, plan.FinalSelect, 0) })
		}
		in("core/cleanup", root, func() { e.hp.CleanupPlan(plan) })
		if err != nil {
			return nil, err
		}
		in("pctagg/convert", root, func() { data = convert(res) })
		if tr != nil {
			tr.rows[s.tpl] += len(data)
		}
		return data, nil
	}
}

// stages accumulates self times (a span's duration minus the part its
// children cover) of the product's own span trees, by layer stage.
type stages struct {
	us map[string]float64
}

func stageOf(name string) string {
	switch {
	case name == "parse":
		return "sqlparse/reparse"
	case strings.HasPrefix(name, "scan "), name == "values":
		return "engine/scan"
	case name == "filter":
		return "engine/filter"
	case name == "aggregate", name == "fold", name == "partition fan-out", strings.HasPrefix(name, "worker "),
		name == "pivot fold", name == "distinct":
		return "engine/fold"
	case name == "merge", strings.HasPrefix(name, "emit "):
		return "engine/merge"
	case strings.Contains(name, "join"), name == "materialize right":
		return "engine/join"
	case name == "window":
		return "engine/window"
	case name == "project":
		return "engine/project"
	case name == "sort":
		return "engine/sort"
	case strings.HasPrefix(name, "insert "):
		return "engine/insert"
	case strings.HasPrefix(name, "step: "), strings.HasPrefix(name, "plan "), name == "final select", name == "cleanup":
		return "core/self"
	default:
		return "engine/other"
	}
}

func (st *stages) add(sp *obs.Span) {
	var covered time.Duration
	// The children of a fan-out ran at the same time: the fan-out's own wall
	// time is what the statement waited, so its workers are not added again.
	if !sp.Concurrent {
		for _, c := range sp.Children {
			covered += c.Duration
			st.add(c)
		}
	}
	if self := sp.Duration - covered; self > 0 {
		st.us[stageOf(sp.Name)] += float64(self) / 1e3
	}
	if sp.Name == "statement" {
		st.us["engine/statement"] += float64(sp.Duration) / 1e3
	}
}

// productTraced returns an executor that runs statements embedded through
// ExecuteTracedCtx (ExecSQLCtxIn for writes) and folds the returned span
// trees into st.
func (e *env) productTraced(st *stages) execFn {
	ctx := context.Background()
	return func(_ int, s *stmt) ([][]any, error) {
		if s.op == opPing {
			return nil, nil
		}
		if s.op != opQuery {
			root := obs.NewSpan("dml")
			_, err := e.db.Engine().ExecSQLCtxIn(ctx, s.sql, 0, root)
			root.End()
			st.add(root)
			return nil, err
		}
		plan, err := e.hp.PlanSQL(s.sql, defaultOptions)
		if err != nil {
			return nil, err
		}
		res, root, err := e.hp.ExecuteTracedCtx(ctx, plan)
		st.add(root)
		if err != nil {
			return nil, err
		}
		return convert(res), nil
	}
}

// counters flattens db.MetricsJSON: counters and gauges by name, histograms
// as <name>.count and <name>.sum_ns.
func (e *env) counters() map[string]float64 {
	var raw map[string]json.RawMessage
	out := map[string]float64{}
	if err := json.Unmarshal([]byte(e.db.MetricsJSON()), &raw); err != nil {
		return out
	}
	for name, msg := range raw {
		var f float64
		if json.Unmarshal(msg, &f) == nil {
			out[name] = f
			continue
		}
		var h struct {
			Count float64 `json:"count"`
			Sum   float64 `json:"sum_ns"`
		}
		if json.Unmarshal(msg, &h) == nil {
			out[name+".count"], out[name+".sum_ns"] = h.Count, h.Sum
		}
	}
	return out
}

func delta(after, before map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// workCounters are the counts that must repeat exactly between two runs of
// one seeded pass on a single-client workload.
var workCounters = []string{"engine.rows.scanned", "engine.groups.emitted", "engine.statements", "core.steps",
	"cache.hits", "cache.misses", "cache.delta_applied", "cache.invalidations"}

func ratio(a, b float64) float64 {
	if b == 0 { // floateq:ok guards the division only
		return 0
	}
	return a / b
}

// layerSpans are the harness spans inside an embedded statement, with the
// layer and per-layer metric each one feeds.
var layerSpans = map[string][2]string{
	"sqlparse/parse": {"sqlparse", "parse_us"}, "core/plan": {"core", "plan_us"}, "core/steps": {"core", "steps_us"},
	"core/final_select": {"core", "final_select_us"}, "core/cleanup": {"core", "cleanup_us"},
	"pctagg/convert": {"pctagg", "convert_us"}, "engine/exec": {"engine", "exec_us"},
}

var engineStages = []string{"scan", "filter", "fold", "merge", "join", "window", "project", "sort", "insert", "other"}

// metrics collects a run's numbers. Names are given as layer and metric and
// joined here: the repository's metricname analyzer reserves dotted literals
// such as engine.x for metrics the product registers.
type metrics map[string]metric

func (m metrics) put(layer, name string, v float64, unit string) {
	m[layer+"."+name] = metric{v, unit}
}

// tracedPasses is how many passes run decomposed under harness spans.
const tracedPasses = 3

// tracedRun produces every per-layer metric for one workload. Instance one
// runs, after its checked warm-up, tracedPasses decomposed passes (harness
// spans and counter deltas), one product-traced pass (the split below the
// step boundary), then untraced passes through the normal entry points until
// the time is up; instance two repeats warm-up and the decomposed passes from
// the same seed, and its work counters must equal instance one's.
func tracedRun(w *workload, seed int64, sz sizes, seconds float64, spansOut *[]span) (*result, error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	e, _, warm, err := setupEnv(w, seed, sz, true, true)
	if err != nil {
		return nil, err
	}
	defer e.close()
	res := &result{}
	res.note(warm)

	// Pass A: the decomposed path under harness spans.
	tr := &tracer{t0: time.Now(), rows: map[string]int{}}
	c0 := e.counters()
	pa := e.run(e.decomposed(tr), tracedPasses, time.Time{}, false)
	ca := delta(e.counters(), c0)
	res.note(pa)
	if spansOut != nil {
		*spansOut = tr.spans
	}

	// Pass B: the product's own span trees.
	st := &stages{us: map[string]float64{}}
	c0 = e.counters()
	pb := e.run(e.productTraced(st), 1, time.Time{}, false)
	cb := delta(e.counters(), c0)
	res.note(pb)

	// Untraced passes through pctagg.DB: the harness planner hands the
	// summary cache over to the database's own, and one pass refills it.
	if w.cache {
		e.hp.ShareSummaries(false)
		e.hp.FlushSummaries()
		e.db.EnableSummaryCache(true)
		refill := e.run(e.execEmbedded, 1, time.Time{}, false)
		res.note(refill)
	}
	runtime.GC()
	embDeadline := deadline
	if w.wire {
		embDeadline = time.Time{} // one embedded pass; the wire gets the time
	}
	pe := e.run(e.execEmbedded, 1, embDeadline, false)
	client, cw := pe, map[string]float64{}
	if w.wire {
		c0 = e.counters()
		client = e.run(e.execWire, 1, deadline, true)
		cw = delta(e.counters(), c0)
		e.verify(client, e.execWire)
		res.note(client)
	} else {
		e.verify(pe, e.execEmbedded)
	}
	res.note(pe)
	olap, hpct := e.shapes(pe)

	// Determinism guard: same seed, fresh instance, same work.
	var mismatch []string
	if len(w.clients) == 1 {
		e2, _, warm2, err := setupEnv(w, seed, sz, true, true)
		if err != nil {
			return nil, err
		}
		c0 = e2.counters()
		p2 := e2.run(e2.decomposed(nil), tracedPasses, time.Time{}, false)
		c2 := delta(e2.counters(), c0)
		e2.close()
		res.note(warm2)
		res.note(p2)
		if e2.checksum != e.checksum {
			mismatch = append(mismatch, "data.checksum")
		}
		for _, k := range workCounters {
			if ca[k] != c2[k] { // floateq:ok whole-number counters
				mismatch = append(mismatch, fmt.Sprintf("%s %v != %v", k, ca[k], c2[k]))
			}
		}
		if len(mismatch) > 0 {
			res.Failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("determinism guard: two passes from one seed differ: %s", strings.Join(mismatch, "; "))
			}
		}
	}

	m := metrics{}
	na, nb := float64(pa.stmts), float64(pb.stmts)
	spanUs, spanN := tr.totals()
	layerUs := 0.0
	for name, to := range layerSpans {
		m.put(to[0], to[1], spanUs[name]/na, "us")
		layerUs += spanUs[name]
	}
	// The same statements through pctagg.DB, untraced, weighted by how often
	// the decomposed passes ran each template embedded. The overhead of the
	// harness spans (and of the product's own tracing) compares each
	// template's best time on both sides, which a slow stretch of the box
	// does not move.
	var queryUs, rootUs, bestA, bestE, embN, bestB, bestEB float64
	for tpl := range pa.lat {
		name := "embedded/" + tpl
		if ref := pe.lat[tpl]; spanN[name] > 0 && len(ref) > 0 {
			queryUs += medianDur(ref) / 1e3 * spanN[name]
			rootUs += spanUs[name]
			bestA += tr.best(name) * spanN[name]
			bestE += best(ref) * spanN[name]
			embN += spanN[name]
		}
	}
	for tpl, l := range pb.lat {
		if ref := pe.lat[tpl]; len(ref) > 0 && tpl != "ping" {
			bestB += best(l) * float64(len(l))
			bestEB += best(ref) * float64(len(l))
		}
	}
	m.put("pctagg", "query_us", ratio(queryUs, embN), "us")
	m.put("trace", "coverage", ratio(layerUs, rootUs), "ratio")
	m.put("trace", "overhead_frac", ratio(bestA, bestE)-1, "ratio")
	m.put("trace", "product_overhead_frac", ratio(bestB, bestEB)-1, "ratio")

	m.put("sqlparse", "reparse_us", st.us["sqlparse/reparse"]/nb, "us")
	m.put("sqlparse", "parses", (spanN["sqlparse/parse"]+ca["engine.statements"])/na, "count")
	m.put("core", "steps", ca["core.steps"]/na, "count")
	m.put("core", "self_us", st.us["core/self"]/nb, "us")
	m.put("core", "cache.hit_ratio", ratio(ca["cache.hits"], ca["cache.hits"]+ca["cache.misses"]), "ratio") // pctvet:ok a harness ratio, not a product counter
	m.put("core", "cache.delta_applied", ca["cache.delta_applied"], "count")
	m.put("core", "cache.invalidations", ca["cache.invalidations"], "count")
	m.put("core", "lattice.nodes", ca["cache.lattice_nodes"], "count")
	m.put("engine", "statements", ca["engine.statements"]/na, "count")
	m.put("engine", "statement_us", st.us["engine/statement"]/nb, "us")
	for _, stage := range engineStages {
		m.put("engine", stage+"_us", st.us["engine/"+stage]/nb, "us")
	}
	m.put("engine", "rows_scanned", ca["engine.rows.scanned"]/na, "count")
	m.put("engine", "groups_emitted", ca["engine.groups.emitted"]/na, "count")
	m.put("engine", "fold_ns_per_row", ratio(st.us["engine/fold"]*1e3, cb["engine.rows.scanned"]), "ns")
	m.put("engine", "batch.fold_ratio", ratio(ca["batch.folds"], ca["batch.folds"]+ca["batch.fallbacks"]), "ratio") // pctvet:ok a harness ratio, not a product counter
	m.put("engine", "batch.fallbacks", ca["batch.fallbacks"], "count")
	m.put("engine", "agg.parallel", ca["engine.agg.parallel"], "count")
	m.put("engine", "agg.seq_fallback", ca["engine.agg.seq_fallback"], "count")
	m.put("batch", "pool.hit_ratio", ratio(ca["batch.pool.hits"], ca["batch.pool.gets"]), "ratio")
	m.put("storage", "append_ns_per_row", ratio(float64(e.loadDur), float64(e.rowsLoaded)), "ns")
	m.put("storage", "rows_loaded", float64(e.rowsLoaded), "count")

	// Server layer: each read's round trip beside the embedded cost of the
	// same SQL; the per-row wire cost from the one large-result template.
	var rtUs, rtN, ovUs float64
	for tpl := range pa.lat {
		if n := spanN["embedded/"+tpl]; n > 0 && spanN["server/"+tpl] > 0 {
			rtUs, rtN = rtUs+spanUs["server/"+tpl], rtN+n
			ovUs += spanUs["server/"+tpl] - spanUs["embedded/"+tpl]
		}
	}
	hist := func(name string) float64 { return ratio(cw[name+".sum_ns"], cw[name+".count"]) / 1e3 }
	m.put("server", "roundtrip_us", ratio(rtUs, rtN), "us")
	m.put("server", "overhead_us", ratio(ovUs, rtN), "us")
	m.put("server", "ping_us", ratio(spanUs["server/ping"], spanN["server/ping"]), "us")
	m.put("server", "wire_us_per_krow", ratio((spanUs["server/vpct_large"]-spanUs["embedded/vpct_large"])*1000, float64(tr.rows["vpct_large"])), "us")
	m.put("server", "queue_wait_us", hist("server.queue_wait_ns"), "us")
	m.put("server", "statement_us", hist("server.statement_ns"), "us")
	m.put("server", "admitted", cw["server.admitted"], "count")
	m.put("server", "rejected", cw["server.rejected.queue_full"]+cw["server.rejected.tenant_cap"]+cw["server.rejected.drain"], "count")

	// Harness: per-template medians and pooled tails of the untraced phase
	// (over the wire for the wire workload). Every workload's templates are
	// listed so that each traced run prints the same metric names.
	for _, other := range workloads() {
		for _, tpl := range other.templates() {
			m.put("stmt", tpl+".p50_ms", medianDur(client.lat[tpl])/1e6, "ms")
		}
	}
	p50, n := quantile(client.lat, 0.5)
	p99, _ := quantile(client.lat, 0.99)
	m.put("client", "latency_p50_ms", p50/1e6, "ms")
	m.put("client", "latency_p99_ms", p99/1e6, "ms")
	m.put("client", "latency_samples", float64(n), "count")
	m.put("client", "wall_qps", ratio(float64(client.stmts), client.wall.Seconds()), "1/s")
	m.put("proc", "gc_pause_ms", float64(client.gcPause)/1e6, "ms")
	m.put("proc", "gc_cycles", float64(client.gcCount), "count")
	m.put("proc", "heap_sys_peak_mb", float64(client.heapSys)/mib, "MiB")
	m.put("data", "checksum", float64(e.checksum&(1<<48-1)), "count")
	m.put("determinism", "mismatches", float64(len(mismatch)), "count")
	m.put("shape", "olap_over_vpct", olap, "ratio")
	m.put("shape", "hpct_over_vpct", hpct, "ratio")

	res.Metrics = m
	res.Correct = res.Failed == 0
	return res, nil
}

// shapes times the paper's Table 6 orderings where this instance has the
// data and the untraced phase has the other side: the OLAP window formulation
// over Vpct (on vpct_scan, q1…q8) and Hpct over Vpct (on hpct_case, q1…q7;
// q8 is left out as in the workload), as geometric means of per-query ratios
// of medians. Both must stay above 1. The OLAP statements take seconds each
// and are timed once; the ratios are far from 1.
func (e *env) shapes(pe *phase) (olapOverVpct, hpctOverVpct float64) {
	timed := func(sql string, reps int) float64 {
		var d []time.Duration
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if _, err := e.db.Query(sql); err != nil {
				return 0
			}
			d = append(d, time.Since(t0))
		}
		return medianDur(d)
	}
	var olaps, hpcts []float64
	for i, q := range primary {
		v := as(specVpct, q)
		if ref := pe.lat[fmt.Sprintf("vpct_q%d", i+1)]; len(ref) > 0 {
			if sql, err := e.db.OLAPEquivalent(v.sql()); err == nil {
				olaps = append(olaps, ratio(timed(sql, 1), medianDur(ref)))
			}
		}
		if ref := pe.lat[fmt.Sprintf("hpct_q%d", i+1)]; len(ref) > 0 {
			hpcts = append(hpcts, ratio(medianDur(ref), timed(v.sql(), 3)))
		}
	}
	return geomean(olaps), geomean(hpcts)
}

func geomean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	if len(v) == 0 {
		return 0
	}
	return math.Exp(sum / float64(len(v)))
}
