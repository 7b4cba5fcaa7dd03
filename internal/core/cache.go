package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
)

// The summary cache turns the paper's batch-evaluation idea (shared Fk/Fj
// summaries across percentage queries) into a DML-aware materialized cache:
// entries are stamped with the base table's modification epoch (see
// internal/storage) and an engine DML hook tells them what each committed
// statement changed. What an entry does with it:
//
//	DML on the base table                          the entry
//	INSERT, every aggregate distributive           pending range [from, to)
//	INSERT, an avg, DISTINCT or REAL-sum column    invalid
//	UPDATE ≤ engine.MutationBound rows, in place:
//	  no assigned column is read (group,
//	  measure, WHERE)                              restamped, still valid
//	  only rows inside the pending range           pendEpoch advances
//	  every column exact-invertible (count, sum
//	  of a bare INTEGER column); group and WHERE
//	  columns equal in both images; no NULL on
//	  either side of an assigned measure           pending −old / +new
//	  anything else (REAL sum, min / max, avg,
//	  DISTINCT, a row moving between groups or
//	  across the WHERE)                            invalid
//	UPDATE of more rows, UPDATE … FROM, DELETE,
//	DROP, a write that bypassed the engine         invalid
//
// Distributive aggregates (sum, count, min, max — the classes Gray et al.
// identify as cheap to maintain) fold what is pending at the next lookup by
// aggregating only those rows and re-aggregating them together with the
// cached rows — a distributive aggregate's super-aggregate is the same
// function over its sub-aggregates, so the merge is the summary's own
// roll-up; sum and count are also invertible, so a changed row is its old
// image aggregated negated beside its new one. A REAL sum is neither, to the
// bit: it rounds by addition order, so it is rebuilt, never merged. An invalid
// entry degrades to a rebuild — the cache may redo work but never serves a
// stale percentage, nor one that differs from a cold run's in its last bit.

// Cache metrics (see internal/obs). Hits count plans served from a cached
// summary (clean or via delta); invalidations count entries discarded after
// DML the delta path cannot cover; delta_fallback counts incremental
// refreshes that degraded to a rebuild after a fault.
var (
	mCacheHits          = obs.Default.Counter("cache.hits")
	mCacheMisses        = obs.Default.Counter("cache.misses")
	mCacheInvalidations = obs.Default.Counter("cache.invalidations")
	mCacheDeltaApplied  = obs.Default.Counter("cache.delta_applied")
	mCacheDeltaFallback = obs.Default.Counter("cache.delta_fallback")
	mCacheFjRollups     = obs.Default.Counter("cache.fj_rollup")
	mCacheLatticePlans  = obs.Default.Counter("cache.lattice_plans")
	mCacheLatticeNodes  = obs.Default.Counter("cache.lattice_nodes")
	mCacheLatticeReused = obs.Default.Counter("cache.lattice_finest_reused")
)

// CacheStats is a snapshot of the planner's summary-cache counters.
type CacheStats struct {
	// Hits counts plans that reused a cached summary, including ones
	// refreshed incrementally on the way.
	Hits int64
	// Misses counts summaries built (and registered) from scratch.
	Misses int64
	// Invalidations counts entries discarded because DML outran the delta
	// path: DELETE, DROP, UPDATE … FROM, an UPDATE of more than
	// engine.MutationBound rows or one the entry cannot take as −old / +new
	// (the table heading this file), any DML the entry reads under an avg or
	// DISTINCT column, or a write that bypassed the engine. An UPDATE of
	// columns the summary does not read, or one folded as a signed delta, is
	// not one.
	Invalidations int64
	// DeltaApplied counts incremental refreshes: aggregate only the
	// appended rows, merge into the cached summary.
	DeltaApplied int64
	// DeltaFallback counts incremental refreshes that degraded to a full
	// rebuild after a fault mid-delta.
	DeltaFallback int64
	// FjRollups counts coarse Fj summaries derived from a cached fine Fk —
	// the paper's Fj-from-Fk derivation applied across statements.
	FjRollups int64
	// LatticePlans counts ROLLUP/CUBE/GROUPING SETS plans generated.
	LatticePlans int64
	// LatticeNodes counts lattice nodes across those plans (every node
	// derives from the finest summary, so nodes-per-plan measures the fan-out
	// a single FS scan answered).
	LatticeNodes int64
	// LatticeFinestReused counts lattice plans whose finest summary FS came
	// from the cache (clean or via delta) — the whole lattice answered
	// without touching the base table.
	LatticeFinestReused int64
}

// CacheStats returns a snapshot of the summary-cache counters.
func (p *Planner) CacheStats() CacheStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cstats
}

// deltaMeta is everything needed to refresh a summary without replanning:
// the statement shape of its build (re-aggregated over just the delta rows,
// or over the full base table on rebuild) and of its roll-up over itself, and
// what an UPDATE may touch (summary.meta).
type deltaMeta struct {
	base    string // base table F
	where   string // " WHERE …" or ""
	groupBy string // " GROUP BY …" or ""
	selects string // rendered select list of the build INSERT
	rollup  string // rendered select list re-aggregating summary rows by the same grouping; "" = not distributive
	retract string // rendered select list negating the build over a row's old image; "" = not exactly invertible
	colDefs string // rendered column list of the summary's CREATE TABLE
	// reads holds the positions in F of every column the summary reads;
	// fixed, those among them that place a row — the group and WHERE columns.
	reads, fixed []int
}

// signedRow is one row an UPDATE changed under a summary that covers it: the
// images to aggregate as −old / +new, and the base epoch after that UPDATE.
type signedRow struct {
	old, new []value.Value
	epoch    int64
}

// maxSigned bounds the images an entry holds between two lookups; a summary
// nobody reads while UPDATEs pile up is cheaper to rebuild than to remember.
const maxSigned = 4 * engine.MutationBound

// summaryEntry is one cached summary. All fields are guarded by the
// planner's mu; epochs and row counts refer to the base table.
type summaryEntry struct {
	key       string
	table     string
	baseTable string // lowercased
	delta     *deltaMeta

	built   bool // the table exists and holds the summary
	invalid bool // DML outran the delta path; its table is retired, and the next lookup rebuilds

	epoch    int64 // base epoch the summary reflects
	baseRows int   // base row count the summary reflects

	// Pending changes not yet folded in: appended rows [pendFrom, pendTo)
	// and the signed images of changed rows below baseRows; pendEpoch is the
	// base epoch after the last tracked statement.
	pendFrom, pendTo int
	signed           []signedRow
	pendEpoch        int64

	// gen counts every DML-hook touch of this entry. Build paths that scan
	// the live base table snapshot it before reading the epoch and refuse
	// to publish as valid if it moved — a write landing mid-scan may or may
	// not be in the result, so the entry must not claim to cover it.
	gen int64

	// busy is closed when the lookup that builds or refreshes the entry is
	// done; nil while none is. A lookup of a busy entry waits for it.
	busy chan struct{}
}

// cacheMode says how the cache answered a summary at plan time.
type cacheMode int

const (
	cacheOff       cacheMode = iota // not cached: the plan builds a private table
	cacheReused                     // the cached table was current
	cacheRefreshed                  // the lookup folded pending changes in (or rebuilt it)
	cacheBuilt                      // the lookup built and published it
)

// hit reports whether the cache served the summary, as is or refreshed.
func (m cacheMode) hit() bool { return m == cacheReused || m == cacheRefreshed }

// marker is the comment step a plan keeps for a summary the cache answered.
func (m cacheMode) marker(s *summary) Step {
	verb := [...]string{cacheReused: "reuse", cacheRefreshed: "refresh", cacheBuilt: "build"}[m]
	return Step{Purpose: "cache: " + verb + " shared " + s.what + " summary " + s.table}
}

// cacheDMLHook feeds committed DML into the planner's summary cache. It is
// installed on the engine by ShareSummaries(true).
type cacheDMLHook struct{ p *Planner }

// OnInsert records a committed append [from, to) against every summary over
// the table: deltable entries extend their pending range, the rest are
// invalidated.
func (h *cacheDMLHook) OnInsert(table string, from, to int, preEp, postEp int64) {
	h.p.cacheTouch(table, func(e *summaryEntry) bool {
		if covEpoch, covRows := e.covered(); e.delta.rollup == "" || preEp != covEpoch || from != covRows {
			return false
		}
		if e.pendTo == e.pendFrom {
			e.pendFrom = from
		}
		e.pendTo, e.pendEpoch = to, postEp
		return true
	})
}

// OnMutate tells every summary over a table that was updated, deleted from
// or dropped. m describes a bounded in-place UPDATE; an entry takes it by the
// table heading this file. Everything else (m nil) invalidates.
func (h *cacheDMLHook) OnMutate(table string, m *engine.Mutation) {
	h.p.cacheTouch(table, func(e *summaryEntry) bool { return m != nil && e.absorb(m) })
}

// pending reports whether tracked changes wait to be folded in.
func (e *summaryEntry) pending() bool { return e.pendTo > e.pendFrom || len(e.signed) > 0 }

// covered returns the state of the base table the entry accounts for, the
// summary plus what is pending. A tracked statement is only mergeable if it
// starts from exactly that state: a row-count match alone is not enough — an
// unhooked write (a direct storage mutation) can leave the count intact while
// changing rows the summary already folded, and only the epoch betrays it.
func (e *summaryEntry) covered() (epoch int64, rows int) {
	epoch, rows = e.epoch, e.baseRows
	if e.pending() {
		epoch = e.pendEpoch
	}
	if e.pendTo > e.pendFrom {
		rows = e.pendTo
	}
	return epoch, rows
}

// restamp moves what the entry accounts for to epoch, the base table's after
// a tracked statement.
func (e *summaryEntry) restamp(epoch int64) {
	if e.pending() {
		e.pendEpoch = epoch
	} else {
		e.epoch = epoch
	}
}

// cacheTouch counts committed DML on table against every summary over it
// (gen) and hands each built, valid one to keep, invalidating it when keep
// says it is no longer a true account of the table. Runs on the writer's
// goroutine, post-commit.
func (p *Planner) cacheTouch(table string, keep func(e *summaryEntry) bool) {
	lower := strings.ToLower(table)
	p.mu.Lock()
	defer p.unlock()
	for _, e := range p.summaries {
		if e.baseTable != lower {
			continue
		}
		e.gen++
		if e.built && !e.invalid && !keep(e) {
			p.invalidateLocked(e)
		}
	}
}

// absorb applies a bounded UPDATE to the entry and reports whether the entry
// is still a true account of the base table.
func (e *summaryEntry) absorb(m *engine.Mutation) bool {
	if covEpoch, _ := e.covered(); m.PreEpoch != covEpoch {
		return false
	}
	read := false
	for _, c := range m.Cols {
		read = read || slices.Contains(e.delta.reads, c)
	}
	for i, r := range m.Rows {
		if !read || e.pendTo > e.pendFrom && r >= e.pendFrom {
			continue // nothing the summary reads, or a row the refresh reads anyway
		}
		if e.delta.retract == "" || len(e.signed) == maxSigned {
			return false
		}
		old, new := m.Old[i], m.New[i]
		for _, c := range m.Cols {
			switch {
			case slices.Contains(e.delta.fixed, c):
				if !identical(old[c], new[c]) {
					return false
				}
			case slices.Contains(e.delta.reads, c):
				// A sum cannot tell its last value leaving from a zero.
				if old[c].IsNull() || new[c].IsNull() {
					return false
				}
			}
		}
		e.signed = append(e.signed, signedRow{old: old, new: new, epoch: m.PostEpoch})
	}
	e.restamp(m.PostEpoch)
	return true
}

// identical reports whether two cells of one column hold the same value bit
// for bit: -0.0 and 0.0 share a group but not a rendering.
func identical(a, b value.Value) bool {
	if a.Kind() == value.KindFloat && b.Kind() == value.KindFloat {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return a == b
}

// invalidateLocked marks the entry invalid and retires its table.
func (p *Planner) invalidateLocked(e *summaryEntry) {
	e.invalid = true
	e.pendFrom, e.pendTo, e.signed, e.pendEpoch = 0, 0, nil, 0
	p.retireLocked(e.table)
	p.cstats.Invalidations++
	mCacheInvalidations.Inc()
}

// retireLocked gives up a cache table no entry serves any more: it is
// dropped at the next unlock, or, while a plan or a lookup binds it, when the
// last of them releases it.
func (p *Planner) retireLocked(table string) {
	if p.pins[table] > 0 {
		p.retired[table] = true
		return
	}
	p.unbound = append(p.unbound, table)
}

// releaseLocked releases one binding of a cache table (p.pins), dropping
// the table once the last is gone if it was retired while bound.
func (p *Planner) releaseLocked(table string) {
	if p.pins[table]--; p.pins[table] > 0 {
		return
	}
	delete(p.pins, table)
	if p.retired[table] {
		delete(p.retired, table)
		p.unbound = append(p.unbound, table)
	}
}

// unlock releases p.mu, then drops the retired tables nothing binds. A drop
// runs the DML hook, which takes p.mu, so no drop may run under it.
func (p *Planner) unlock() {
	drops := p.unbound
	p.unbound = nil
	p.mu.Unlock()
	for _, t := range drops {
		p.Eng.DropIfExists(t)
	}
}

// cacheLookup answers summary s of a from the cache while the plan is
// generated, under the statement's context: a current entry is reused as it
// is, a pending one is refreshed (applyCacheDelta), and a missing or invalid
// one is built by query and published — all before the lookup returns, so
// the plan only reads s.table, which stays bound to it until its cleanup.
// One lookup at a time works on a key; a concurrent lookup of it waits, then
// reads what that one left. The work is one unit of plan work
// (engine.Contain): its statements nest under the plan's span as generated
// ones, the limits' deadline applies, and a panic comes back as PCT206 with
// the entry untouched, since publishing comes last. A failed lookup records
// its error on the plan and answers cacheOff, as every later one does. A plan
// for display changes nothing: it renders a cached entry, current or
// pending, and answers cacheOff for a missing one, whose build the caller
// renders privately. s.table is the fresh name a build or refresh writes.
func (p *Planner) cacheLookup(ctx context.Context, plan *Plan, key string, s *summary, a *analysis, query func() string) cacheMode {
	if plan.err != nil {
		return cacheOff
	}
	var e *summaryEntry
	var mode cacheMode
	for {
		// Read the base epoch before taking p.mu: the DML hook takes p.mu while
		// never holding the catalog lock, and this ordering keeps it that way.
		t, err := p.Eng.Catalog().Get(a.table)
		p.mu.Lock()
		e = p.summaries[key]
		mode = cacheBuilt // missing, invalid, or stale beyond what the delta covers
		switch {
		case !p.shareSummaries:
			mode = cacheOff
		case e == nil || !e.built || e.invalid || err != nil:
		case t.Epoch() == e.epoch:
			mode = cacheReused
		case e.delta.rollup != "" && e.pending() && t.Epoch() == e.pendEpoch:
			mode = cacheRefreshed
		}
		if mode == cacheOff || plan.display || e == nil || e.busy == nil {
			break
		}
		busy := e.busy
		p.mu.Unlock()
		select {
		case <-busy:
		case <-ctx.Done():
			plan.err = engine.CheckCtx(ctx)
			return cacheOff
		}
	}
	if plan.display && mode == cacheBuilt {
		mode = cacheOff // a missing summary renders as a private build
	}
	if mode == cacheReused || plan.display && mode != cacheOff {
		s.table = e.table
	}
	if mode == cacheOff || plan.display {
		p.mu.Unlock()
		return mode
	}
	if mode == cacheBuilt {
		if e != nil && e.built && !e.invalid {
			// Stale beyond what the delta covers: a write bypassed the engine,
			// or raced the lookup.
			p.invalidateLocked(e)
		}
		e = &summaryEntry{key: key, table: s.table, baseTable: strings.ToLower(a.table), delta: s.meta(a)}
		p.summaries[key] = e
	}
	plan.pins = append(plan.pins, s.table)
	p.pins[s.table]++
	if mode != cacheReused {
		e.busy = make(chan struct{})
		old := e.table
		p.pins[old]++ // a refresh reads it: a concurrent invalidation must not drop it
		p.unlock()
		var sp *obs.Span
		if plan.span != nil {
			sp = plan.span.NewChild(mode.marker(s).Purpose)
		}
		err := p.Eng.Contain(engine.Generated(ctx), "cache lookup", sp, func(ctx context.Context, _ engine.Limits) error {
			if mode == cacheRefreshed {
				return p.applyCacheDelta(ctx, plan.Parallelism, sp, e, s)
			}
			return p.cacheRebuild(ctx, plan.Parallelism, sp, e, s, query(), s.from)
		})
		sp.End()
		p.mu.Lock()
		close(e.busy)
		e.busy = nil
		p.releaseLocked(old)
		if err != nil {
			if p.summaries[key] == e && !e.built {
				delete(p.summaries, key)
			}
			p.retireLocked(s.table) // unpublished: dropped when the failed plan lets go
			p.unlock()
			plan.err = err
			return cacheOff
		}
	}
	s.epoch = -1 // unknown, unless the entry serves the table
	if p.summaries[key] == e && e.table == s.table && !e.invalid {
		s.epoch = e.epoch
	}
	if mode == cacheBuilt {
		p.cstats.Misses++
		plan.cacheMisses++
		mCacheMisses.Inc()
	} else {
		p.cstats.Hits++
		plan.cacheHits++
		mCacheHits.Inc()
	}
	p.unlock()
	return mode
}

// cacheStride mirrors the engine's governor stride: the delta snapshot's
// loops check cancellation once per this many rows.
const cacheStride = 1024

// How cachePublishReplace publishes a table.
const (
	pubMerged = iota // a delta merge: the entry stays as valid as it was
	pubBuilt         // a build no DML raced: the entry is valid
	pubRaced         // a build that DML raced: the entry is invalid
)

// cachePublishReplace points the entry at newT, which reflects the base
// table at (epoch, rows), trimming the pending changes the refresh consumed:
// appended rows below rows, signed images stamped at or before epoch. When
// nothing is left pending, statements tracked since that touched nothing the
// summary reads have only moved pendEpoch, and the entry is current at it.
// The replaced table is retired: the plans that bound it keep it until their
// cleanup. newT itself is retired when the entry is invalid — the plan that
// built it still reads it — or was flushed while it was built.
func (p *Planner) cachePublishReplace(e *summaryEntry, newT string, epoch int64, rows int, how int) {
	p.mu.Lock()
	switch {
	case p.summaries[e.key] != e:
		p.retireLocked(newT)
	default:
		if e.table != newT && !e.invalid {
			p.retireLocked(e.table)
		}
		e.built, e.table, e.epoch, e.baseRows = true, newT, epoch, rows
		switch {
		case how == pubBuilt:
			e.invalid = false
		case e.invalid:
			p.retireLocked(newT)
		case how == pubRaced:
			p.invalidateLocked(e)
		}
		if e.pendTo <= rows {
			e.pendFrom, e.pendTo = 0, 0
		} else if e.pendFrom < rows {
			e.pendFrom = rows
		}
		for len(e.signed) > 0 && e.signed[0].epoch <= epoch {
			e.signed = e.signed[1:]
		}
		if !e.pending() {
			e.epoch, e.pendEpoch = max(epoch, e.pendEpoch), 0
		}
	}
	if how == pubMerged {
		p.cstats.DeltaApplied++
		mCacheDeltaApplied.Inc()
	}
	p.unlock()
}

// applyCacheDelta refreshes the entry into s.table: by the delta merge when
// the pending changes still apply, by a rebuild from the base table otherwise
// or after a fault mid-delta.
func (p *Planner) applyCacheDelta(ctx context.Context, parallelism int, sp *obs.Span, e *summaryEntry, s *summary) error {
	p.mu.Lock()
	st := *e // a snapshot: the DML hook goes on changing e
	p.mu.Unlock()
	meta := st.delta
	base, err := p.Eng.Catalog().Get(meta.base)
	if err != nil {
		return err
	}
	cur, curRows := base.Epoch(), base.NumRows()

	appended, signed := st.pendTo > st.pendFrom, len(st.signed) > 0
	if st.built && !st.invalid && (appended || signed) && (!appended || st.pendFrom == st.baseRows) && cur == st.pendEpoch && st.pendTo <= curRows {
		err := p.cacheDeltaMerge(ctx, parallelism, sp, e, meta, &st, s)
		if err == nil {
			return nil
		}
		if isLifecycleErr(err) {
			return err
		}
		// Injected or internal fault mid-delta: degrade to a rebuild. The
		// entry is untouched (the delta publishes last), so this can never
		// leave a stale or half-merged summary behind.
		p.mu.Lock()
		p.cstats.DeltaFallback++
		p.mu.Unlock()
		mCacheDeltaFallback.Inc()
		if sp != nil {
			sp.Attr("cache.fallback", err.Error())
		}
	}
	return p.cacheRebuild(ctx, parallelism, sp, e, s, fmt.Sprintf("SELECT %s FROM %s%s%s", meta.selects, meta.base, meta.where, meta.groupBy), nil)
}

// cacheBuild creates s.table with the summary's columns, fills it with the
// rows of query and, when asked, declares its index on its group columns (as
// CREATE INDEX does, without the statement), dropping it again on any
// failure. No plan reads the table before the lookup that builds it is done,
// so the index is declared while nothing else can read it.
func (p *Planner) cacheBuild(ctx context.Context, parallelism int, sp *obs.Span, meta *deltaMeta, s *summary, query string) error {
	ok := false
	defer func() {
		if !ok {
			p.Eng.DropIfExists(s.table)
		}
	}()
	if _, err := p.Eng.ExecSQLCtxIn(ctx, fmt.Sprintf("CREATE TABLE %s (%s)", s.table, meta.colDefs), 1, sp); err != nil {
		return err
	}
	if _, err := p.Eng.ExecSQLCtxIn(ctx, "INSERT INTO "+s.table+" "+query, parallelism, sp); err != nil {
		return err
	}
	if s.indexed {
		t, err := p.Eng.Catalog().Get(s.table)
		if err != nil {
			return err
		}
		if _, err := t.CreateIndex(p.temp("ixj"), s.group); err != nil {
			return err
		}
	}
	ok = true
	return nil
}

// cacheDeltaMerge refreshes the summary incrementally: snapshot what is
// pending into two scratch tables shaped like the base — the old image of
// each changed row; its new image and then the appended rows [pendFrom, pendTo)
// — append to another the cached rows and then each snapshot's roll-up — the
// summary's own build statement, negated over the old images, the scratch
// table aliased as the base so WHERE and select references resolve — and
// build the new table as the summary's roll-up over that union by its own
// grouping. The fold emits groups in first-appearance order and a changed row
// stays in its group, so existing groups keep their positions and brand-new
// groups append in the appended rows' order: the result is byte-identical to
// a cold aggregation over the full table.
func (p *Planner) cacheDeltaMerge(ctx context.Context, parallelism int, sp *obs.Span, e *summaryEntry, meta *deltaMeta, st *summaryEntry, s *summary) error {
	eng := p.Eng
	base, err := eng.Catalog().Get(meta.base)
	if err != nil {
		return err
	}
	minusT, deltaT, unionT := p.temp("cminus"), p.temp("cdelta"), p.temp("croll")
	defer func() {
		eng.DropIfExists(minusT)
		eng.DropIfExists(deltaT)
		eng.DropIfExists(unionT)
	}()

	// 1. The snapshots (no SQL names a row range or an image). The base table
	// only ever grows under the hook's watch (anything else invalidates), so
	// [from, to) is stable.
	queries := []string{"SELECT * FROM " + st.table}
	scratch := func(table, selects string) (*storage.Table, error) {
		queries = append(queries, fmt.Sprintf("SELECT %s FROM %s %s%s%s", selects, table, quoteIdent(meta.base), meta.where, meta.groupBy))
		return eng.Catalog().Create(table, base.Schema())
	}
	rows := 0
	fill := func(dst *storage.Table, n int, row func(i int) []value.Value) error {
		for i := 0; i < n; i, rows = i+1, rows+1 {
			if rows%cacheStride == 0 {
				if err := engine.CheckCtx(ctx); err != nil {
					return err
				}
			}
			if err := chaos.HitN(chaos.CacheDelta, rows+1); err != nil {
				return err
			}
			if _, err := dst.AppendRow(row(i)); err != nil {
				return err
			}
		}
		return nil
	}
	if len(st.signed) > 0 {
		minus, err := scratch(minusT, meta.retract)
		if err == nil {
			err = fill(minus, len(st.signed), func(i int) []value.Value { return st.signed[i].old })
		}
		if err != nil {
			return err
		}
	}
	delta, err := scratch(deltaT, meta.selects)
	if err == nil {
		err = fill(delta, len(st.signed), func(i int) []value.Value { return st.signed[i].new })
	}
	var rowBuf []value.Value
	if err == nil {
		err = fill(delta, st.pendTo-st.pendFrom, func(i int) []value.Value {
			rowBuf = base.Row(st.pendFrom+i, rowBuf)
			return rowBuf
		})
	}
	if err != nil {
		return err
	}

	// 2. The cached rows, then each snapshot re-aggregated, governed like any
	// statement, in one table reserved for all. The cached table is left as it
	// is: the plans that bound it read it until their cleanup.
	old, err := eng.Catalog().Get(st.table)
	if err != nil {
		return err
	}
	union, err := eng.Catalog().Create(unionT, old.Schema())
	if err != nil {
		return err
	}
	union.Reserve(old.NumRows() + rows)
	for _, query := range queries {
		if _, err := eng.ExecSQLCtxIn(ctx, "INSERT INTO "+unionT+" "+query, parallelism, sp); err != nil {
			return err
		}
	}

	// 3. Merge: the roll-up of cached ∪ delta.
	if err := chaos.Hit(chaos.CacheMerge); err != nil {
		return err
	}
	if err := p.cacheBuild(ctx, parallelism, sp, meta, s, fmt.Sprintf("SELECT %s FROM %s%s", meta.rollup, unionT, meta.groupBy)); err != nil {
		return err
	}

	// 4. Publish. The new table reflects the base at the captured pending
	// epoch; statements that landed during the merge stay pending and chain
	// off it.
	p.cachePublishReplace(e, s.table, st.pendEpoch, max(st.pendTo, st.baseRows), pubMerged)
	if sp != nil {
		sp.AttrInt("cache.delta_rows", int64(rows))
		sp.AttrInt("cache.merged_groups", int64(union.NumRows()-old.NumRows()))
	}
	return nil
}

// cacheRebuild builds the summary into s.table by query and publishes it — a
// missing summary's build, and the degradation path for everything the
// table heading this file marks invalid, writes that bypassed the hook, and
// faults mid-delta. It reflects the base table as read before the scan: a
// write the hook reports meanwhile publishes the entry invalid, and so does a
// query over another cached summary, from, that reflects another state.
func (p *Planner) cacheRebuild(ctx context.Context, parallelism int, sp *obs.Span, e *summaryEntry, s *summary, query string, from *summary) error {
	p.mu.Lock()
	gen0 := e.gen
	p.mu.Unlock()
	base, err := p.Eng.Catalog().Get(e.delta.base)
	if err != nil {
		return err
	}
	epoch, rows := base.Epoch(), base.NumRows()
	if err := p.cacheBuild(ctx, parallelism, sp, e.delta, s, query); err != nil {
		return err
	}
	// DML that landed while the build scanned, or before the summary it
	// reads was taken, leaves a result correct for this plan that may not
	// match the stamped epoch.
	how := pubBuilt
	p.mu.Lock()
	if e.gen != gen0 || from != nil && from.epoch != epoch {
		how = pubRaced
	}
	p.mu.Unlock()
	p.cachePublishReplace(e, s.table, epoch, rows, how)
	return nil
}

// isLifecycleErr reports whether err is cancellation, a budget, or a
// contained panic — outcomes that must propagate to the caller rather than
// trigger a cache rebuild (rebuilding would dodge the user's cancel).
func isLifecycleErr(err error) bool {
	var ce *engine.CancelledError
	var le *engine.LimitError
	var pe *engine.PanicError
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.As(err, &ce) || errors.As(err, &le) || errors.As(err, &pe)
}
