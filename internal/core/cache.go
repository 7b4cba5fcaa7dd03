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
	invalid bool // DML outran the delta path; discard on next lookup

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

	// capGen/capEpoch/capRows are the snapshot taken by the capture step
	// before a from-scratch build scans the base table.
	capGen, capEpoch int64
	capRows          int
}

// cacheMode classifies a plan-time cache lookup.
type cacheMode int

const (
	cacheOff      cacheMode = iota // sharing disabled: plain temp table
	cacheMiss                      // build from scratch, then publish
	cacheHitClean                  // cached table is current: use it as is
	cacheHitDelta                  // refresh incrementally into a new table
)

// cacheDMLHook feeds committed DML into the planner's summary cache. It is
// installed on the engine by ShareSummaries(true).
type cacheDMLHook struct{ p *Planner }

func (h *cacheDMLHook) OnInsert(table string, from, to int, preEp, postEp int64) {
	h.p.cacheOnInsert(table, from, to, preEp, postEp)
}
func (h *cacheDMLHook) OnMutate(table string, m *engine.Mutation) { h.p.cacheOnMutate(table, m) }

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

// cacheOnInsert records a committed append [from, to) against every summary
// over the table: deltable entries extend their pending range, the rest are
// invalidated. Runs on the writer's goroutine, post-commit.
func (p *Planner) cacheOnInsert(table string, from, to int, preEp, postEp int64) {
	lower := strings.ToLower(table)
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.summaries {
		if e.baseTable != lower {
			continue
		}
		e.gen++
		if !e.built || e.invalid {
			continue
		}
		if covEpoch, covRows := e.covered(); e.delta.rollup == "" || preEp != covEpoch || from != covRows {
			p.invalidateLocked(e)
			continue
		}
		if e.pendTo == e.pendFrom {
			e.pendFrom = from
		}
		e.pendTo = to
		e.pendEpoch = postEp
	}
}

// cacheOnMutate tells every summary over a table that was updated, deleted
// from or dropped. m describes a bounded in-place UPDATE; an entry takes it
// by the table heading this file. Everything else (m nil) invalidates.
func (p *Planner) cacheOnMutate(table string, m *engine.Mutation) {
	lower := strings.ToLower(table)
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.summaries {
		if e.baseTable != lower {
			continue
		}
		e.gen++
		if !e.built || e.invalid {
			continue
		}
		if m == nil || !e.absorb(m) {
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

func (p *Planner) invalidateLocked(e *summaryEntry) {
	e.invalid = true
	e.pendFrom, e.pendTo, e.signed, e.pendEpoch = 0, 0, nil, 0
	p.cstats.Invalidations++
	mCacheInvalidations.Inc()
}

// cacheLookup consults the cache at plan time for summary s of a: s.table is
// the temp-table name the plan would use if it has to build, and only a miss
// renders the summary's maintenance metadata.
// On cacheMiss the returned entry is provisionally registered — the plan
// must run a capture step before and a publish step after the build, and
// cleanup abandons unpublished registrations (an EXPLAINed or failed plan
// must not poison the cache). On cacheHitDelta the returned entry is the
// live one; the plan refreshes it into fresh via cacheDeltaStep.
func (p *Planner) cacheLookup(key string, s *summary, a *analysis) (string, cacheMode, *summaryEntry) {
	fresh, base := s.table, a.table
	// Read the base epoch before taking p.mu: the DML hook takes p.mu while
	// never holding the catalog lock, and this ordering keeps it that way.
	var cur int64
	haveEpoch := false
	if t, err := p.Eng.Catalog().Get(base); err == nil {
		cur, haveEpoch = t.Epoch(), true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.shareSummaries {
		return fresh, cacheOff, nil
	}
	if e, ok := p.summaries[key]; ok {
		if e.built && !e.invalid && haveEpoch {
			if cur == e.epoch {
				p.cstats.Hits++
				mCacheHits.Inc()
				return e.table, cacheHitClean, e
			}
			if e.delta.rollup != "" && e.pending() && cur == e.pendEpoch {
				p.cstats.Hits++
				mCacheHits.Inc()
				return fresh, cacheHitDelta, e
			}
			// Stale beyond what the delta covers (a write bypassed the
			// engine, or raced the lookup).
			p.invalidateLocked(e)
		}
		// Discard: unbuilt leftovers from a plan that never executed, or
		// invalidated entries. Their tables stay on the flush list.
		delete(p.summaries, key)
	}
	p.cstats.Misses++
	mCacheMisses.Inc()
	ne := &summaryEntry{key: key, table: fresh, baseTable: strings.ToLower(base), delta: s.meta(a)}
	p.summaries[key] = ne
	p.summaryDrops = append(p.summaryDrops, fresh)
	return fresh, cacheMiss, ne
}

// cacheAbandon forgets every provisional registration the plan never
// published: EXPLAIN plans and failed builds must not leave entries that a
// later plan would trust. Runs from plan cleanup.
func (p *Planner) cacheAbandon(plan *Plan) {
	if len(plan.cacheRegs) == 0 {
		return
	}
	regs := plan.cacheRegs
	plan.cacheRegs = nil
	var drops []string
	p.mu.Lock()
	for _, e := range regs {
		if e.built {
			continue
		}
		if cur, ok := p.summaries[e.key]; ok && cur == e {
			delete(p.summaries, e.key)
		}
		drops = append(drops, e.table)
	}
	p.mu.Unlock()
	for _, t := range drops {
		p.Eng.DropIfExists(t)
	}
}

// cacheCaptureStep snapshots the base table's epoch, row count, and the
// entry's hook generation before a from-scratch build scans it. The publish
// step compares generations: if DML touched the entry mid-build, the result
// may or may not contain those rows, so it publishes as invalid.
func (p *Planner) cacheCaptureStep(e *summaryEntry, base string) Step {
	return Step{
		Purpose: "cache: snapshot base-table epoch",
		native: func(_ context.Context, eng *engine.Engine, _ int, _ *obs.Span) error {
			p.mu.Lock()
			gen := e.gen
			p.mu.Unlock()
			t, err := eng.Catalog().Get(base)
			if err != nil {
				return err
			}
			ep, rows := t.Epoch(), t.NumRows()
			p.mu.Lock()
			e.capGen, e.capEpoch, e.capRows = gen, ep, rows
			p.mu.Unlock()
			return nil
		},
	}
}

// cachePublishStep marks a freshly built summary live.
func (p *Planner) cachePublishStep(e *summaryEntry, what string) Step {
	return Step{
		Purpose: "cache: publish " + what + " summary",
		native: func(_ context.Context, _ *engine.Engine, _ int, _ *obs.Span) error {
			p.mu.Lock()
			defer p.mu.Unlock()
			e.built = true
			e.epoch = e.capEpoch
			e.baseRows = e.capRows
			if e.gen != e.capGen {
				// DML raced the build scan; don't trust the snapshot.
				p.invalidateLocked(e)
			}
			return nil
		},
	}
}

// cacheHitStep is the no-op marker step a clean cache hit leaves in the
// plan, so EXPLAIN and traces show where a summary was reused.
func cacheHitStep(what, table string) Step {
	return Step{
		Purpose: "cache: reuse shared " + what + " summary " + table,
		native: func(context.Context, *engine.Engine, int, *obs.Span) error {
			return nil
		},
	}
}

// cacheDeltaStep refreshes a cached summary into newT: incrementally when
// the pending delta still applies at execution time, by copy when another
// plan already refreshed it, by rebuild otherwise. Either way the step ends
// with newT holding a correct summary for this plan's later steps, and the
// entry republished to point at it.
func (p *Planner) cacheDeltaStep(e *summaryEntry, newT, what string) Step {
	return Step{
		Purpose: "cache: refresh " + what + " summary incrementally",
		native: func(ctx context.Context, eng *engine.Engine, parallelism int, sp *obs.Span) error {
			return p.applyCacheDelta(ctx, eng, parallelism, sp, e, newT)
		},
	}
}

// cacheStride mirrors the engine's governor stride: native cache loops
// check cancellation once per this many rows.
const cacheStride = 1024

// publish modes for cachePublishReplace.
const (
	pubPreserve = iota // keep the entry's invalid flag as is
	pubValid           // mark valid (rebuild that saw no racing DML)
	pubInvalid         // mark invalid (rebuild raced DML)
)

// cachePublishReplace points the entry at newT, which reflects the base
// table at (epoch, rows), trimming the pending changes the refresh consumed:
// appended rows below rows, signed images stamped at or before epoch. When
// nothing is left pending, statements tracked since that touched nothing the
// summary reads have only moved pendEpoch, and the entry is current at it.
// The replaced table is not dropped here — concurrently executing plans may
// still reference it; FlushSummaries drops everything it ever registered.
func (p *Planner) cachePublishReplace(e *summaryEntry, newT string, epoch int64, rows int, mode int, applied bool) {
	p.mu.Lock()
	if p.summaries[e.key] == e {
		e.built = true
		e.table = newT
		e.epoch = epoch
		e.baseRows = rows
		switch mode {
		case pubValid:
			e.invalid = false
		case pubInvalid:
			if !e.invalid {
				p.invalidateLocked(e)
			}
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
	p.summaryDrops = append(p.summaryDrops, newT)
	if applied {
		p.cstats.DeltaApplied++
	}
	p.mu.Unlock()
	if applied {
		mCacheDeltaApplied.Inc()
	}
}

// cacheSnap is an immutable view of an entry taken under p.mu.
type cacheSnap struct {
	table     string
	epoch     int64
	baseRows  int
	from, to  int
	signed    []signedRow
	pendEpoch int64
	live      bool
}

func (p *Planner) applyCacheDelta(ctx context.Context, eng *engine.Engine, parallelism int, sp *obs.Span, e *summaryEntry, newT string) error {
	p.mu.Lock()
	meta := e.delta
	st := cacheSnap{
		table: e.table, epoch: e.epoch, baseRows: e.baseRows,
		from: e.pendFrom, to: e.pendTo, signed: e.signed, pendEpoch: e.pendEpoch,
		live: e.built && !e.invalid,
	}
	p.mu.Unlock()
	base, err := eng.Catalog().Get(meta.base)
	if err != nil {
		return err
	}
	cur, curRows := base.Epoch(), base.NumRows()

	if st.live && cur == st.epoch {
		// Another plan already refreshed the entry; copy its table.
		return p.cacheCopy(ctx, eng, parallelism, sp, e, meta, st, newT)
	}
	appended, signed := st.to > st.from, len(st.signed) > 0
	if st.live && (appended || signed) && (!appended || st.from == st.baseRows) && cur == st.pendEpoch && st.to <= curRows {
		err := p.cacheDeltaMerge(ctx, eng, parallelism, sp, e, meta, st, newT)
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
	return p.cacheRebuild(ctx, eng, parallelism, sp, e, meta, newT)
}

// cacheBuild creates newT with the summary's columns and fills it with the
// rows of query, dropping it again on any failure.
func (p *Planner) cacheBuild(ctx context.Context, eng *engine.Engine, parallelism int, sp *obs.Span, meta *deltaMeta, newT, query string) error {
	ok := false
	defer func() {
		if !ok {
			eng.DropIfExists(newT)
		}
	}()
	if _, err := eng.ExecSQLCtxIn(ctx, fmt.Sprintf("CREATE TABLE %s (%s)", newT, meta.colDefs), 1, sp); err != nil {
		return err
	}
	if _, err := eng.ExecSQLCtxIn(ctx, "INSERT INTO "+newT+" "+query, parallelism, sp); err != nil {
		return err
	}
	ok = true
	return nil
}

// cacheCopy materializes newT as a row-order copy of the current cache
// table. Row order is preserved, so results are identical to reusing the
// table directly.
func (p *Planner) cacheCopy(ctx context.Context, eng *engine.Engine, parallelism int, sp *obs.Span, e *summaryEntry, meta *deltaMeta, st cacheSnap, newT string) error {
	if err := p.cacheBuild(ctx, eng, parallelism, sp, meta, newT, "SELECT * FROM "+st.table); err != nil {
		return err
	}
	p.cachePublishReplace(e, newT, st.epoch, st.baseRows, pubPreserve, false)
	return nil
}

// cacheDeltaMerge refreshes the summary incrementally: snapshot what is
// pending into two scratch tables shaped like the base — the old image of
// each changed row; its new image and then the appended rows [st.from, st.to)
// — append to another the cached rows and then each snapshot's roll-up — the
// summary's own build statement, negated over the old images, the scratch
// table aliased as the base so WHERE and select references resolve — and
// build the new table as the summary's roll-up over that union by its own
// grouping. The fold emits groups in first-appearance order and a changed row
// stays in its group, so existing groups keep their positions and brand-new
// groups append in the appended rows' order: the result is byte-identical to
// a cold aggregation over the full table.
func (p *Planner) cacheDeltaMerge(ctx context.Context, eng *engine.Engine, parallelism int, sp *obs.Span, e *summaryEntry, meta *deltaMeta, st cacheSnap, newT string) error {
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
		err = fill(delta, st.to-st.from, func(i int) []value.Value {
			rowBuf = base.Row(st.from+i, rowBuf)
			return rowBuf
		})
	}
	if err != nil {
		return err
	}

	// 2. The cached rows, then each snapshot re-aggregated, governed like any
	// statement, in one table reserved for all. Copy-on-write keeps
	// concurrent plans that hold the old table name safe; the old table is
	// dropped at flush.
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
	if err := p.cacheBuild(ctx, eng, parallelism, sp, meta, newT, fmt.Sprintf("SELECT %s FROM %s%s", meta.rollup, unionT, meta.groupBy)); err != nil {
		return err
	}

	// 4. Publish. newT reflects the base at the captured pending epoch;
	// statements that landed during the merge stay pending and chain off it.
	p.cachePublishReplace(e, newT, st.pendEpoch, max(st.to, st.baseRows), pubPreserve, true)
	if sp != nil {
		sp.AttrInt("cache.delta_rows", int64(rows))
		sp.AttrInt("cache.merged_groups", int64(union.NumRows()-old.NumRows()))
	}
	return nil
}

// cacheRebuild recomputes the summary from the live base table — the
// degradation path for everything the table heading this file marks invalid,
// writes that bypassed the hook, and faults mid-delta.
func (p *Planner) cacheRebuild(ctx context.Context, eng *engine.Engine, parallelism int, sp *obs.Span, e *summaryEntry, meta *deltaMeta, newT string) error {
	p.mu.Lock()
	gen0 := e.gen
	p.mu.Unlock()
	base, err := eng.Catalog().Get(meta.base)
	if err != nil {
		return err
	}
	preEpoch, preRows := base.Epoch(), base.NumRows()
	if err := p.cacheBuild(ctx, eng, parallelism, sp, meta, newT, fmt.Sprintf("SELECT %s FROM %s%s%s", meta.selects, meta.base, meta.where, meta.groupBy)); err != nil {
		return err
	}
	mode := pubValid
	p.mu.Lock()
	raced := e.gen != gen0
	p.mu.Unlock()
	if raced {
		// DML landed while the rebuild scanned; the result is correct for
		// this plan but may not match the stamped epoch.
		mode = pubInvalid
	}
	p.cachePublishReplace(e, newT, preEpoch, preRows, mode, false)
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
