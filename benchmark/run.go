package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/pctagg"
)

// env is one loaded instance of a workload: the database, the server and its
// connections when the workload goes over the wire, the oracle's copy of the
// rows, and one statement stream per client.
type env struct {
	w          *workload
	db         *pctagg.DB
	hp         *core.Planner // traced runs: the harness's own planner for the decomposed path
	srv        *server.Server
	conns      []*server.Client
	tables     map[string]*table
	streams    []*stream
	loadDur    time.Duration
	rowsLoaded int
	checksum   uint64
}

// execFn runs one statement for client c and returns its result rows.
type execFn func(c int, s *stmt) ([][]any, error)

const mib = 1 << 20

// phase is what one measured stretch of statements produced.
type phase struct {
	lat     map[string][]time.Duration
	stmts   int
	failed  int
	qps     float64 // see throughput
	wall    time.Duration
	err     error   // first failure, for the report
	writes  []*stmt // a pass's successful writes, until the oracle has applied them
	mallocs uint64
	bytes   uint64
	heap    []float64 // MiB of heap held from the OS at the end of each pass
	heapSys uint64
	gcPause time.Duration
	gcCount uint32
}

func (p *phase) fail(err error) {
	p.failed++
	if p.err == nil {
		p.err = err
	}
}

// setupEnv generates and loads the data, starts the server if the workload
// has one, and runs one untimed warm-up pass. The returned duration is the
// set-up time a user would wait: everything except the oracle's checking.
func setupEnv(w *workload, seed int64, sz sizes, traced, verify bool) (*env, time.Duration, *phase, error) {
	start := time.Now()
	e := &env{w: w, db: pctagg.Open(), tables: map[string]*table{}}
	tables := w.tables(seed, sz)
	for _, t := range tables {
		d, err := t.load(e.db.Engine().Catalog())
		if err != nil {
			return nil, 0, nil, err
		}
		e.loadDur += d
		e.rowsLoaded += t.n
		e.tables[t.name] = t
	}
	if traced {
		e.checksum = checksum(tables)
		// Only one planner's summary cache may be live per engine, so the
		// decomposed path gets its own planner (and temp-table prefix) and
		// the database's cache stays off until the untraced phase.
		e.hp = core.NewPlanner(e.db.Engine())
		e.hp.TempPrefix = "pcb"
		e.hp.ShareSummaries(w.cache)
	} else {
		e.db.EnableSummaryCache(w.cache)
	}
	if w.wire {
		cfg := server.Config{Addr: "127.0.0.1:0"}
		for _, name := range w.clients {
			cfg.Tenants = append(cfg.Tenants, server.TenantProfile{Name: name, MaxQueue: 16})
		}
		e.srv = server.New(e.db, cfg)
		if err := e.srv.Start(); err != nil {
			return nil, 0, nil, fmt.Errorf("start server: %w", err)
		}
		for _, name := range w.clients {
			c, err := server.Dial(e.srv.Addr().String(), name)
			if err != nil {
				e.close()
				return nil, 0, nil, fmt.Errorf("dial as %s: %w", name, err)
			}
			e.conns = append(e.conns, c)
		}
	}
	for c := range w.clients {
		st := &stream{rng: rand.New(rand.NewSource(seed*1000 + int64(c) + 17)), sz: sz, nextID: 1}
		if t, ok := e.tables["sales"]; ok {
			st.nextID, st.nrows = int64(t.n)+1, t.n
		}
		e.streams = append(e.streams, st)
	}
	exec := e.execEmbedded
	switch {
	case traced:
		exec = e.decomposed(nil)
	case w.wire:
		exec = e.execWire
	}
	warm := e.run(exec, 1, time.Time{}, !traced)
	dur := time.Since(start)
	if verify {
		e.verify(warm, exec)
	}
	return e, dur, warm, nil
}

func (e *env) close() {
	for _, c := range e.conns {
		c.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
}

func (e *env) execEmbedded(_ int, s *stmt) ([][]any, error) {
	switch s.op {
	case opQuery:
		rows, err := e.db.Query(s.sql)
		if err != nil {
			return nil, err
		}
		return rows.Data, nil
	case opPing:
		return nil, nil
	default:
		_, err := e.db.Exec(s.sql)
		return nil, err
	}
}

func (e *env) execWire(c int, s *stmt) ([][]any, error) {
	if s.op == opPing {
		return nil, e.conns[c].Ping(context.Background())
	}
	res, err := e.conns[c].Do(context.Background(), s.sql)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// run drives the clients through whole passes of their streams in a closed
// loop — the next statement is sent when the previous one has answered —
// until at least minPasses are done and the deadline has passed. The clients
// of one pass run concurrently when concurrent is set (the wire workload's
// two connections) and start the next pass together, so every run holds the
// same mix of statements however fast each client is. Between passes the
// oracle's copy of the rows takes the pass's writes and the heap is sampled.
func (e *env) run(exec execFn, minPasses int, deadline time.Time, concurrent bool) *phase {
	recs := make([]*phase, len(e.streams))
	for c := range recs {
		recs[c] = &phase{lat: map[string][]time.Duration{}}
	}
	client := func(c int) {
		rec := recs[c]
		stmts := e.w.pass(e.streams[c], c)
		for i := range stmts {
			s := &stmts[i]
			t0 := time.Now()
			data, err := exec(c, s)
			rec.lat[s.tpl] = append(rec.lat[s.tpl], time.Since(t0))
			rec.stmts++
			switch {
			case err != nil:
				rec.fail(fmt.Errorf("%s: %w", s.tpl, err))
			case s.op == opQuery && len(data) == 0:
				rec.fail(fmt.Errorf("%s: empty result", s.tpl))
			case s.op == opInsert || s.op == opUpdate:
				rec.writes = append(rec.writes, s)
			}
		}
	}
	out := &phase{lat: map[string][]time.Duration{}}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for pass := 0; pass < minPasses || time.Now().Before(deadline); pass++ {
		var wg sync.WaitGroup
		for c := range e.streams {
			if !concurrent {
				client(c)
				continue
			}
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client(c)
			}(c)
		}
		wg.Wait()
		for _, r := range recs {
			e.applyWrites(r)
		}
		runtime.ReadMemStats(&ms1)
		out.heap = append(out.heap, float64(ms1.HeapSys-ms1.HeapReleased)/mib)
	}
	out.wall = time.Since(start)
	for _, r := range recs {
		for tpl, l := range r.lat {
			out.lat[tpl] = append(out.lat[tpl], l...)
		}
		out.stmts += r.stmts
		out.qps += throughput(r.lat)
		out.failed += r.failed
		if out.err == nil {
			out.err = r.err
		}
	}
	out.mallocs = ms1.Mallocs - ms0.Mallocs
	out.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	out.heapSys = ms1.HeapSys
	out.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	out.gcCount = ms1.NumGC - ms0.NumGC
	return out
}

// applyWrites brings the oracle's copy of the rows up to date with the
// writes a client's pass made.
func (e *env) applyWrites(p *phase) {
	for _, s := range p.writes {
		t := e.tables[s.table]
		if s.op == opInsert {
			for _, r := range s.rows {
				t.appendInts(r...)
			}
		} else {
			t.col("salesAmt").ints[s.updRow] = s.updVal
		}
	}
	p.writes = nil
}

// verify runs every read template once more and checks the result in full
// against the oracle, which holds every write made so far; each mismatch
// counts as a failed statement of the phase.
func (e *env) verify(p *phase, exec execFn) {
	for _, s := range e.w.verify(e.streams[0]) {
		s := s
		p.stmts++
		data, err := exec(0, &s)
		if err == nil {
			err = s.spec.check(e.tables[s.spec.table], data)
		}
		if err != nil {
			p.fail(fmt.Errorf("oracle: %s: %s: %w", s.tpl, s.sql, err))
		}
	}
}

// Statistics. The box is shared: a neighbour can slow a stretch of a run by a
// third or more, always in one direction. A template's best observed latency
// is what its code path costs when left alone, and it is the one statistic of
// a run that repeats within a few percent here; medians and means of the same
// samples move with the neighbour. The tails are reported, unbounded, by the
// traced run (client.latency_p50_ms, client.latency_p99_ms).

func best(d []time.Duration) float64 { return float64(slices.Min(d)) }

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}

func medianDur(d []time.Duration) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x)
	}
	return median(v)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile is the nearest-rank q-quantile of the pooled latencies.
func quantile(lat map[string][]time.Duration, q float64) (float64, int) {
	var all []float64
	for _, l := range lat {
		for _, d := range l {
			all = append(all, float64(d))
		}
	}
	if len(all) == 0 {
		return 0, 0
	}
	sort.Float64s(all)
	i := int(math.Ceil(q*float64(len(all)))) - 1
	if i < 0 {
		i = 0
	}
	return all[i], len(all)
}

// geomeanBestMs is latency_geomean_ms: the geometric mean over templates of
// each template's best latency, so every template counts equally and a heavy
// query cannot hide a regression on the light ones.
func geomeanBestMs(lat map[string][]time.Duration) float64 {
	var ms []float64
	for _, l := range lat {
		if len(l) > 0 {
			ms = append(ms, best(l)/1e6)
		}
	}
	return geomean(ms)
}

// throughput is one closed-loop client's statements per second over its mix:
// the statements it ran ÷ the time they take at each template's best latency.
// The heavy templates dominate it, as they dominate a user's wall clock.
func throughput(lat map[string][]time.Duration) float64 {
	stmts, ns := 0.0, 0.0
	for _, l := range lat {
		stmts += float64(len(l))
		ns += float64(len(l)) * best(l)
	}
	return ratio(stmts, ns/1e9)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload in one mode.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	firstErr  error
}

// note adds a phase's statements and failures to the run's totals.
func (r *result) note(p *phase) {
	r.Attempted += p.stmts
	r.Failed += p.failed
	if r.firstErr == nil {
		r.firstErr = p.err
	}
}

// Set-up is repeated at least minSetups times and until the repeats have
// taken sizes.setupBudget seconds together (at most maxSetups): a
// quarter-second set-up needs more repeats than a one-second one before one
// of them runs undisturbed.
const (
	minSetups = 3
	maxSetups = 9
)

// untracedRun measures the end-to-end metrics: set up, time whole passes for
// the given duration, check every template against the oracle, then set up
// several times more — setup_s is the best of all of them, for the reason the
// latencies are (see Statistics). The repeats come last so that the heap of
// the timed section holds one instance's data, not the garbage of several.
//
// heap_mb is the mean, over the first w.heapPasses passes, of the heap memory
// held from the OS (HeapSys − HeapReleased) at the end of each pass. The window
// is a fixed amount of work — the write workloads grow their tables with every
// pass, so a window set by the clock would hold more rows the faster the
// program is — and a mean of samples repeats where a high-water mark moves
// with the collector's timing, four MiB at a time.
func untracedRun(w *workload, seed int64, sz sizes, seconds float64) (*result, error) {
	res := &result{}
	e, d, warm, err := setupEnv(w, seed, sz, false, true)
	if err != nil {
		return nil, err
	}
	res.note(warm)
	setups := []float64{d.Seconds()}
	exec := e.execEmbedded
	if w.wire {
		exec = e.execWire
	}
	runtime.GC()
	p := e.run(exec, w.heapPasses, time.Now().Add(time.Duration(seconds*float64(time.Second))), true)
	timed := float64(p.stmts)
	e.verify(p, exec)
	res.note(p)
	e.close()
	total := d.Seconds()
	for len(setups) < minSetups || (total < sz.setupBudget && len(setups) < maxSetups) {
		e, d, warm, err = setupEnv(w, seed, sz, false, false)
		if err != nil {
			return nil, err
		}
		e.close()
		res.note(warm)
		setups = append(setups, d.Seconds())
		total += d.Seconds()
	}
	res.Correct = res.Failed == 0
	res.Metrics = map[string]metric{
		"setup_s":            {slices.Min(setups), "s"},
		"latency_geomean_ms": {geomeanBestMs(p.lat), "ms"},
		"throughput_qps":     {p.qps, "1/s"},
		"allocs_per_stmt":    {float64(p.mallocs) / timed, "count"},
		"alloc_kb_per_stmt":  {float64(p.bytes) / 1024 / timed, "KiB"},
		"heap_mb":            {mean(p.heap[:w.heapPasses]), "MiB"},
	}
	return res, nil
}
