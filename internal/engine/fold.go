package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/batch"
	"repro/internal/chaos"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
)

// The fold operator: every GROUP BY the engine runs in production — and
// every SELECT DISTINCT, a fold with keys and no aggregates — goes through
// the one row loop body in foldWorker.row — evaluate the key expressions,
// find or create (and charge) the group, evaluate each aggregate's argument
// and add it — whatever feeds it and however many workers share the input.
// Aggregates over the disjoint CASE arms of a horizontal plan are the one
// refinement: the row reaches only the arms its values select (dispatch.go).
//
// Inputs. Keys and arguments are arbitrary bound expressions. Over a stored
// table (a scan under zero or more filters) the operator reads the column
// vectors directly, batch.Size (= govStride) rows at a time: a bare column
// reference is a typed storage.Table.CellGetter, anything computed — Hpct's
// CASE terms, arithmetic — evaluates against a storage.RowView that boxes
// each referenced cell at most once per row. Error-free filters
// (expr.ErrFree) refine a pooled selection vector per batch; a filter that
// can error runs interleaved, row by row, so the first error is the one a
// sequential scan would raise. Any other input (a join, a scan already
// advanced) is drained through the iterator interface into the same body.
//
// Group keys. When every key is a bare INTEGER column of the stored table
// (≤ 4 of them) groups are keyed by a fixed-width intKey — no encoding, no
// per-row allocation; otherwise by the value.AppendKey bytes the reference
// fold uses, so grouping is identical by construction.
//
// Parallelism. foldPartitions splits the input into contiguous row ranges,
// folds each into a private foldPart, and merges them in ascending partition
// order. A group's global first occurrence lies in its lowest-numbered
// partition and rows keep their order within a partition, so that merge
// order reproduces the sequential first-appearance order exactly. A stored
// table is never copied — workers read disjoint ranges of its immutable
// vectors; a join or derived input is materialized (and charged against
// MaxRows/MaxBytes) only when it is about to fan out, because iterators
// reuse row buffers and cannot be shared across goroutines.
//
// hashAggregateSeq (aggregate.go) is the reference this operator is proven
// against: SetBatch(false) and an injected core.batch fault select it, always
// on one worker.

// Fold metrics: folds the operator ran, the rows they consumed, and folds
// sent to the reference instead (SetBatch(false) or a core.batch fault).
var (
	mBatchFolds     = obs.Default.Counter("batch.folds")
	mBatchFoldRows  = obs.Default.Counter("batch.fold.rows")
	mBatchFallbacks = obs.Default.Counter("batch.fallbacks")
)

// autoParallelMinRows gates the automatic mode (parallelism <= 0): below
// this many input rows the goroutine spawn and merge overhead outweighs the
// scan, so one worker folds. An explicit parallelism > 1 bypasses the gate,
// which is what lets the differential tests exercise the partitioned path on
// hand-sized fixtures.
const autoParallelMinRows = 8192

// resolveWorkers maps a parallelism setting (core.Options.Parallelism
// semantics: 0 → one worker per CPU, 1 → sequential, n > 1 → exactly n) to
// the most workers it may use.
func resolveWorkers(parallelism int) int {
	if parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// foldPartitions is the engine's one partition-and-merge. It resolves
// parallelism against the n input rows, runs fold over contiguous ranges of
// [0, n) — one goroutine each — and merges the partials in ascending
// partition order into partition 0's, which it returns together with the
// stage span it opened under span: the "fold" span of a one-worker fold, or
// the concurrent "partition fan-out" whose "worker i/N" children and "merge"
// sibling carry the per-partition breakdown.
//
// Workers run under a cancel context derived from ctx (nil = ungoverned):
// the first failure — error, contained panic, limit hit — stops the siblings
// within one governor stride. Error selection stays deterministic: the
// lowest-numbered partition's real error wins, so a failing query reports
// the same error however many workers raced past the failing row, and a
// sibling's cancellation is reported only when nothing else failed.
func foldPartitions(ctx context.Context, span *obs.Span, parallelism, n int,
	fold func(ctx context.Context, lo, hi int) (*foldPart, error)) (*foldPart, *obs.Span, error) {

	workers := resolveWorkers(parallelism)
	if parallelism <= 0 && workers > 1 && n < autoParallelMinRows {
		mAggSeqFallback.Inc()
		span.Attr("fallback", "sequential (below parallel threshold)")
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		sp := span.NewChild("fold")
		part, err := fold(ctx, 0, n)
		sp.End()
		if err != nil {
			sp.Attr("error", err.Error())
			return nil, sp, err
		}
		sp.SetRows(-1, int64(len(part.order)))
		return part, sp, nil
	}

	mAggParallel.Inc()
	fan := span.NewChild("partition fan-out")
	if fan != nil {
		fan.Concurrent = true
		fan.AttrInt("workers", int64(workers))
	}
	wctx, cancel := ctx, func() {}
	if ctx != nil {
		wctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	parts := make([]*foldPart, workers)
	errs := make([]error, workers)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var ws *obs.Span
			if fan != nil {
				ws = fan.NewChild(fmt.Sprintf("worker %d/%d", w+1, workers))
			}
			defer func() {
				if r := recover(); r != nil {
					errs[w] = NewPanicError(fmt.Sprintf("partition worker %d/%d", w+1, workers), r)
				}
				groups := 0
				if errs[w] != nil {
					ws.Attr("error", errs[w].Error())
					cancel()
				} else {
					groups = len(parts[w].order)
				}
				ws.End()
				ws.SetRows(int64(hi-lo), int64(groups))
			}()
			if errs[w] = chaos.HitN(chaos.AggWorker, w+1); errs[w] == nil {
				parts[w], errs[w] = fold(wctx, lo, hi)
			}
		}(w, min(w*chunk, n), min((w+1)*chunk, n))
	}
	wg.Wait()
	fan.End()

	ms := span.NewChild("merge")
	defer ms.End()
	err := workerError(errs)
	if err == nil {
		err = chaos.Hit(chaos.AggMerge)
	}
	partials := 0
	for w := 0; w < workers && err == nil; w++ {
		partials += len(parts[w].order)
		if w > 0 {
			err = parts[0].absorb(parts[w])
		}
	}
	if err != nil {
		ms.Attr("error", err.Error())
		return nil, fan, err
	}
	ms.SetRows(int64(partials), int64(len(parts[0].order)))
	return parts[0], fan, nil
}

// workerError selects the error a failed fan-out reports: the
// lowest-numbered partition's non-cancellation error, falling back to the
// first cancellation when nothing but sibling-cancel noise remains.
func workerError(errs []error) error {
	var firstCancel error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var c *CancelledError
		if errors.As(err, &c) {
			if firstCancel == nil {
				firstCancel = err
			}
			continue
		}
		return err
	}
	return firstCancel
}

// hashAggregate folds in and pushes one row per group into out — the key
// values followed by one result per spec, groups in first-appearance order —
// returning the group count. ec.span, when set, is the aggregate stage span
// the fold's spans attach to.
func hashAggregate(in iterator, keyExprs []expr.Expr, specs []aggSpec, ec execCtx, out rowSink) (int, error) {
	var n int
	var err error
	if !ec.batch || chaos.Hit(chaos.CoreBatch) != nil {
		// An injected core.batch error means "operator unavailable", not
		// "query failed": the reference produces the result.
		mBatchFallbacks.Inc()
		// The reference drains the pipeline itself, so the operator subtree
		// nests under the fold span: its cumulative time is part of the fold.
		sp := ec.span.NewChild("fold")
		var rows [][]value.Value
		rows, err = hashAggregateSeq(in, keyExprs, specs, ec.gov)
		sp.End()
		sp.SetRows(-1, int64(len(rows)))
		if sp != nil {
			sp.AddChild(operatorSpans(in))
		}
		out.reserve(len(rows))
		for ; n < len(rows) && err == nil; n++ {
			if n%govStride == 0 {
				err = ec.gov.check()
			}
			if err == nil {
				err = out.push(rows[n])
			}
		}
	} else {
		n, err = foldAggregate(in, keyExprs, specs, ec, out)
	}
	mGroupsEmitted.Add(int64(n))
	return n, err
}

// foldInput is one key or aggregate-argument expression as the row loop
// reads it. Both fields nil is count(*)'s absent argument.
type foldInput struct {
	get func(row int) value.Value // bare column of the stored table
	e   expr.Expr                 // anything else, evaluated against the row view
}

// foldOp is one planned fold, shared read-only by its workers.
type foldOp struct {
	in    iterator
	specs []aggSpec
	keys  []foldInput
	args  []foldInput // per spec
	// intKeys selects the fixed-width group key, encoded straight from the
	// key columns' raw vectors.
	intKeys bool
	keyInts [][]int64
	keyNull []func(row int) bool
	// tab is set when in is a fresh scan of a stored table under filters
	// (innermost first): workers then fold row ranges of tab directly.
	tab     *storage.Table
	getters []func(row int) value.Value // per column of tab, built on first use
	scan    *tableScan
	filters []*filterIter
	vector  bool // every filter is error-free → vectorized selection
	view    bool // some expression needs a storage.RowView
	// mem is the materialized input of a fan-out over anything else.
	mem *memRelation
	// Dimension dispatch (dispatch.go): the arm families among the specs, the
	// specs outside every family in ascending order — what a row reaches
	// whatever its values — and, when some dispatched sum arm has an ELSE 0 to
	// settle at emit, which specs those are.
	families []*armFamily
	plain    []int32
	elseZero []bool
	// sums and counts size the accumulator slabs of a new group.
	sums, counts int
}

// planFold binds a fold to its input.
func planFold(in iterator, keyExprs []expr.Expr, specs []aggSpec) *foldOp {
	op := &foldOp{in: in, specs: specs}
	var filters []*filterIter
	cur := in
	for f, ok := cur.(*filterIter); ok; f, ok = cur.(*filterIter) {
		filters = append([]*filterIter{f}, filters...)
		cur = f.child
	}
	if scan, ok := cur.(*tableScan); ok && scan.pos == 0 {
		op.scan, op.tab, op.filters, op.vector = scan, scan.tab, filters, true
		for _, f := range filters {
			op.vector = op.vector && expr.ErrFree(f.pred)
		}
		op.view = !op.vector
	}
	op.intKeys = op.tab != nil && len(keyExprs) > 0 && len(keyExprs) <= len(intKey{}.v)
	for _, ke := range keyExprs {
		k := op.input(ke)
		op.keys = append(op.keys, k)
		if op.intKeys = op.intKeys && k.get != nil; op.intKeys {
			ints, isNull, isInt := op.tab.IntColumn(ke.(*expr.ColumnRef).Index)
			op.keyInts, op.keyNull, op.intKeys = append(op.keyInts, ints), append(op.keyNull, isNull), isInt
		}
	}
	for _, s := range specs {
		if sum, count := slabbed(s.call); sum {
			op.sums++
		} else if count {
			op.counts++
		}
	}
	op.planDispatch(in.schema())
	return op
}

func (op *foldOp) input(e expr.Expr) foldInput {
	if cr, ok := e.(*expr.ColumnRef); ok && op.tab != nil && cr.Bound() && cr.Index < op.tab.NumCols() {
		// One getter per column: the arms of an Hpct fold all read the measure.
		if op.getters == nil {
			op.getters = make([]func(row int) value.Value, op.tab.NumCols())
		}
		if op.getters[cr.Index] == nil {
			op.getters[cr.Index] = op.tab.CellGetter(cr.Index)
		}
		return foldInput{get: op.getters[cr.Index]}
	}
	op.view = op.view || e != nil
	return foldInput{e: e}
}

// foldAggregate runs one fold through the operator.
func foldAggregate(in iterator, keyExprs []expr.Expr, specs []aggSpec, ec execCtx, out rowSink) (int, error) {
	op := planFold(in, keyExprs, specs)
	par, n := 1, 0
	if mem, ok := in.(*memRelation); ok && mem.pos == 0 && mem.stats == nil {
		// A hand-over from another stage (window input, collected output to
		// dedupe) is materialized already: partitions are ranges of it, in place.
		op.mem = mem
	} else if op.tab == nil && resolveWorkers(ec.par) > 1 {
		// The drain is where the operator subtree's time is spent, so it
		// attaches directly under the aggregate span here.
		var err error
		if op.mem, err = materialize(in, ec.gov); err != nil {
			return 0, err
		}
		if ec.span != nil {
			ec.span.AddChild(operatorSpans(in))
		}
	}
	switch {
	case op.tab != nil:
		par, n = ec.par, op.tab.NumRows()
	case op.mem != nil:
		par, n = ec.par, len(op.mem.rows)
		// Budget-pressure degradation: per-worker accumulator maps can,
		// worst case, roughly double the footprint just buffered. If the
		// remaining byte budget is smaller than that input, one worker is
		// the shape that still fits — degrade instead of failing mid-fan-out.
		if rem := ec.gov.bytesRemaining(); rem >= 0 && n > 0 && resolveWorkers(par) > 1 && rem < int64(n)*estimateRowBytes(op.mem.rows[0]) {
			mAggBudgetFallback.Inc()
			ec.span.Attr("fallback", "sequential (byte-budget pressure)")
			par = 1
		}
	}
	var ctx context.Context
	if ec.gov != nil {
		ctx = ec.gov.ctx
	}
	part, stage, err := foldPartitions(ctx, ec.span, par, n, func(ctx context.Context, lo, hi int) (*foldPart, error) {
		return op.run(ec.gov.withCtx(ctx), lo, hi)
	})
	if stage != nil {
		stage.Attr("kernel", "batch")
		if d := op.dispatchAttr(); d != "" {
			stage.Attr("dispatch", d)
			if stage.Concurrent {
				for _, ws := range stage.Children {
					ws.Attr("dispatch", d)
				}
			}
		}
		// A statement with an introspection record always has a span, so the
		// parallel flag cannot be missed here.
		if stage.Concurrent && ec.rec != nil {
			ec.rec.parallel = true
		}
		if op.tab != nil && err == nil {
			// Backfill the per-operator instrumentation the direct table read
			// bypassed. A one-worker fold charges its wall inclusively down
			// the chain; a fan-out's time lives in the worker spans.
			ns := int64(0)
			if !stage.Concurrent {
				ns = int64(stage.Duration)
			}
			op.fillStats(part, ns)
		}
		if op.mem == nil {
			// A one-worker fold consumed the pipeline itself, so the operator
			// subtree nests under its span.
			host := ec.span
			if !stage.Concurrent {
				host = stage
			}
			host.AddChild(operatorSpans(in))
		}
	}
	if err != nil {
		return 0, err
	}
	mBatchFolds.Inc()
	mBatchFoldRows.Add(part.consumed)
	if op.tab != nil {
		// The scan iterator counts its rows at exhaustion; mirror that for
		// the table it never pulled.
		mRowsScanned.Add(part.consumed)
	}
	return op.emit(part, ec.gov, out)
}

// fillStats records the scan's row count and each filter's survivor count
// in the opStats instrumentIter allocated for a traced statement.
func (op *foldOp) fillStats(part *foldPart, ns int64) {
	if op.scan.stats != nil {
		*op.scan.stats = opStats{ns: ns, rows: part.consumed}
	}
	for i, f := range op.filters {
		if f.stats != nil {
			*f.stats = opStats{ns: ns, rows: part.passed[i]}
		}
	}
}

// emit pushes the merged groups into out, one row each through a reused
// buffer, and returns how many went.
func (op *foldOp) emit(part *foldPart, gov *governor, out rowSink) (int, error) {
	if len(op.keys) == 0 && len(part.order) == 0 {
		// A global aggregate over zero input rows still yields one row.
		g, err := op.newGroup(part, nil)
		if err != nil {
			return 0, err
		}
		part.order = append(part.order, g)
	}
	out.reserve(len(part.order))
	row := make([]value.Value, 0, len(op.keys)+len(op.specs))
	for gi, g := range part.order {
		if gi%govStride == 0 {
			if err := gov.check(); err != nil {
				return gi, err
			}
		}
		op.settleElse(g)
		row = append(row[:0], g.keyVals...)
		for _, acc := range g.accs[:len(op.specs)] {
			row = append(row, acc.result())
		}
		if err := out.push(row); err != nil {
			return gi, err
		}
	}
	return len(part.order), nil
}

// intKey is the fixed-width group key for ≤ 4 INTEGER key columns. Two
// rows map to the same intKey exactly when their AppendKey encodings are
// equal, so grouping matches the reference fold.
type intKey struct {
	v    [4]int64
	mask uint8 // bit i set = key column i is NULL (v[i] is then 0)
}

// intKeyOf encodes a tuple of INTEGER-or-NULL values.
func intKeyOf(vals []value.Value) intKey {
	var k intKey
	for i, v := range vals {
		if v.IsNull() {
			k.mask |= 1 << i
		} else {
			k.v[i] = v.Int()
		}
	}
	return k
}

// setRow encodes row r of INTEGER columns straight from their raw vectors.
func (k *intKey) setRow(ints [][]int64, isNull []func(row int) bool, r int) {
	*k = intKey{}
	for i, col := range ints {
		if isNull[i](r) {
			k.mask |= 1 << i
		} else {
			k.v[i] = col[r]
		}
	}
}

// foldPart is one partition's fold state: its groups under one of the two
// key encodings, in local first-appearance order, plus the partition's
// input statistics.
type foldPart struct {
	ints  map[intKey]*groupState // non-nil selects the fixed-width key
	strs  map[string]*groupState
	order []*groupState
	// The slabs newGroup carves group state from.
	groups  []groupState
	keyVals []value.Value
	accs    []accumulator
	sums    []sumAcc
	counts  []countAcc
	soles   []soleAcc
	// find leaves the encoded key here for the insert that may follow.
	ik  intKey
	buf []byte
	// consumed counts input rows read; passed, rows surviving each filter.
	consumed int64
	passed   []int64
}

// find encodes a row's key values and returns its group, or nil. (Workers
// encode a fixed-width key from the raw column vectors instead; the merge
// re-encodes from a group's key values here.)
func (p *foldPart) find(keys []value.Value) *groupState {
	if p.ints != nil {
		p.ik = intKeyOf(keys)
		return p.ints[p.ik]
	}
	p.buf = p.buf[:0]
	for _, v := range keys {
		p.buf = value.AppendKey(p.buf, v)
	}
	return p.strs[string(p.buf)]
}

// insert adds g under the key the preceding find encoded.
func (p *foldPart) insert(g *groupState) {
	if p.ints != nil {
		p.ints[p.ik] = g
	} else {
		p.strs[string(p.buf)] = g
	}
	p.order = append(p.order, g)
}

// absorb merges the next-higher partition into p: groups new to p append in
// from's order, shared groups merge accumulators.
func (p *foldPart) absorb(from *foldPart) error {
	for _, g := range from.order {
		tgt := p.find(g.keyVals)
		if tgt == nil {
			p.insert(g)
			continue
		}
		for i := range tgt.accs {
			if err := tgt.accs[i].merge(g.accs[i]); err != nil {
				return err
			}
		}
	}
	p.consumed += from.consumed
	for i, n := range from.passed {
		p.passed[i] += n
	}
	return nil
}

// slabbed reports which of newGroup's two slabs, if either, holds the
// accumulator of call.
func slabbed(call *expr.AggCall) (sum, count bool) {
	return !call.Distinct && call.Fn == expr.AggSum, !call.Distinct && call.Fn == expr.AggCount
}

// carve cuts n elements off *slab. An exhausted slab is replaced — never
// copied, so pointers into earlier ones stay valid — by one sized for half as
// many groups as the partition holds already: slabs grow 1.5× from the size
// of one group, g groups cost O(log g) allocations, and at most a third of a
// slab goes unused (DESIGN.md "Dataflow between operators").
func carve[T any](slab *[]T, n, groups int) []T {
	if len(*slab) < n {
		*slab = make([]T, n*max(groups/2, 1))
	}
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

// newGroup carves one group's state — the groupState, its copy of the key,
// the accumulator table and the sum and count accumulators, all there is to
// an Hpct or Hagg fold, one per combination — from part's slabs instead of
// one heap object apiece.
func (op *foldOp) newGroup(part *foldPart, keyVals []value.Value) (*groupState, error) {
	have := len(part.order)
	g := &carve(&part.groups, 1, have)[0]
	g.keyVals = carve(&part.keyVals, len(keyVals), have)
	copy(g.keyVals, keyVals)
	if op.elseZero == nil {
		g.accs = carve(&part.accs, len(op.specs), have)
	} else {
		// One soleAcc per family rides behind the specs' accumulators.
		g.accs = carve(&part.accs, len(op.specs)+len(op.families), have)
		soles := carve(&part.soles, len(op.families), have)
		for fi := range soles {
			soles[fi].entry = soleNone
			g.accs[len(op.specs)+fi] = &soles[fi]
		}
	}
	sums, counts := carve(&part.sums, op.sums, have), carve(&part.counts, op.counts, have)
	for i, s := range op.specs {
		switch sum, count := slabbed(s.call); {
		case sum:
			g.accs[i], sums = &sums[0], sums[1:]
		case count:
			counts[0].star = s.call.Star
			g.accs[i], counts = &counts[0], counts[1:]
		default:
			acc, err := newAccumulator(s.call)
			if err != nil {
				return nil, err
			}
			g.accs[i] = acc
		}
	}
	return g, nil
}

// foldWorker folds one partition. gov shares the statement's counters but
// watches the fan-out's cancel context, so a sibling's failure stops this
// fold within one stride.
type foldWorker struct {
	op      *foldOp
	gov     *governor
	part    *foldPart
	keyVals []value.Value
	// dispatch scratch: the specs the current row reaches, a family's key.
	todo    []int32
	armInts intKey
	armKey  []byte
}

// run folds partition [lo, hi) of the op's input: rows of the stored table,
// rows of the materialized copy, or — one worker only — the whole iterator.
// Bound expression trees are immutable and stateless under Eval, so workers
// share them.
func (op *foldOp) run(gov *governor, lo, hi int) (*foldPart, error) {
	part := &foldPart{passed: make([]int64, len(op.filters))}
	if op.intKeys {
		part.ints = make(map[intKey]*groupState)
	} else {
		part.strs = make(map[string]*groupState)
		part.buf = batch.Default.GetBytes(64)
		// absorb re-encodes keys after this worker is done; it must not write
		// into a buffer already handed back.
		defer func() {
			batch.Default.PutBytes(part.buf)
			part.buf = nil
		}()
	}
	w := &foldWorker{op: op, gov: gov, part: part, keyVals: make([]value.Value, len(op.keys))}
	var err error
	switch {
	case op.tab != nil:
		err = w.foldTable(lo, hi)
	case op.mem != nil:
		err = w.drain(&memRelation{rows: op.mem.rows[lo:hi]})
	default:
		err = w.drain(op.in)
	}
	return part, err
}

// row is the fold's one loop body. r addresses the row for typed getters;
// row is the view computed expressions evaluate against.
func (w *foldWorker) row(r int, row expr.Row) error {
	op, part := w.op, w.part
	var g *groupState
	if op.intKeys {
		// intKey.setRow written out: as a call it costs a plain fold ≈ 3 %.
		part.ik = intKey{}
		for i, ints := range op.keyInts {
			if op.keyNull[i](r) {
				part.ik.mask |= 1 << i
			} else {
				part.ik.v[i] = ints[r]
			}
		}
		g = part.ints[part.ik]
	} else {
		for i := range op.keys {
			if k := &op.keys[i]; k.get != nil {
				w.keyVals[i] = k.get(r)
			} else {
				v, err := k.e.Eval(row)
				if err != nil {
					return err
				}
				w.keyVals[i] = v
			}
		}
		g = part.find(w.keyVals)
	}
	if g == nil {
		if op.intKeys {
			for i := range op.keys {
				w.keyVals[i] = op.keys[i].get(r)
			}
		}
		// Group creation is the unbounded allocation; charge it. Groups
		// shared across partitions are counted once per partition, which
		// over-approximates — a budget, not an exact census.
		if err := w.gov.addGroups(1); err != nil {
			return err
		}
		var err error
		if g, err = op.newGroup(part, w.keyVals); err != nil {
			return err
		}
		part.insert(g)
	}
	// Every spec in turn, or — under dimension dispatch — the ones the row
	// reaches.
	var todo []int32
	n := len(op.args)
	if len(op.families) > 0 {
		todo = w.dispatch(g, r, row)
		n = len(todo)
	}
	for k := 0; k < n; k++ {
		i := k
		if todo != nil {
			i = int(todo[k])
		}
		var v value.Value
		if a := &op.args[i]; a.get != nil {
			v = a.get(r)
		} else if a.e != nil {
			var err error
			if v, err = a.e.Eval(row); err != nil {
				return err
			}
		}
		if err := g.accs[i].add(v); err != nil {
			return err
		}
	}
	return nil
}

// drain folds every row an iterator yields, checking the governor each
// stride (base-table leaves also charge their scans; this covers
// materialized inputs).
func (w *foldWorker) drain(in iterator) error {
	var box rowBox
	for {
		row, ok, err := in.next()
		if err != nil || !ok {
			return err
		}
		w.part.consumed++
		if w.part.consumed%govStride == 0 {
			if err := w.gov.check(); err != nil {
				return err
			}
		}
		box.vals = row
		if err := w.row(0, &box); err != nil {
			return err
		}
	}
}

// foldTable folds rows [lo, hi) of the stored table a batch at a time,
// charging the governor per batch: same stride, totals, and typed errors as
// the scan iterator.
func (w *foldWorker) foldTable(lo, hi int) error {
	op := w.op
	var view *storage.RowView
	if op.view {
		view = op.tab.NewRowView()
	}
	var sel []int32
	if op.vector && len(op.filters) > 0 {
		sel = batch.Default.GetSel(batch.Size)
		defer func() { batch.Default.PutSel(sel) }()
	}
	for base := lo; base < hi; base += batch.Size {
		bn := min(batch.Size, hi-base)
		if sel != nil {
			sel = op.selectBatch(base, bn, sel, w.part.passed)
			for _, r := range sel {
				if view != nil {
					view.Seek(int(r))
				}
				if err := w.row(int(r), view); err != nil {
					return err
				}
			}
		} else {
			// No filters, or interleaved mode: a filter that can error forces
			// per-row filter-then-fold order, so the first error is the one
			// a sequential scan raises.
			for r := base; r < base+bn; r++ {
				if view != nil {
					view.Seek(r)
				}
				pass, err := w.passes(view)
				if err != nil {
					return err
				}
				if pass {
					if err := w.row(r, view); err != nil {
						return err
					}
				}
			}
		}
		w.part.consumed += int64(bn)
		if err := w.gov.addScanned(int64(bn)); err != nil {
			return err
		}
	}
	return nil
}

// passes applies the filter chain to the view's row, innermost first.
func (w *foldWorker) passes(view *storage.RowView) (bool, error) {
	for i, f := range w.op.filters {
		v, err := f.pred.Eval(view)
		if err != nil || !v.Truthy() {
			return false, err
		}
		w.part.passed[i]++
	}
	return true, nil
}

// selectBatch fills sel with the row ids in [base, base+bn) passing every
// filter, recording per-filter survivor counts. Vector mode only.
func (op *foldOp) selectBatch(base, bn int, sel []int32, passed []int64) []int32 {
	sel = sel[:0]
	for i := 0; i < bn; i++ {
		sel = append(sel, int32(base+i))
	}
	for i, f := range op.filters {
		if len(sel) > 0 {
			sel = op.applySel(f.pred, sel)
		}
		passed[i] += int64(len(sel))
	}
	return sel
}

// applySel refines a selection vector through one error-free predicate.
func (op *foldOp) applySel(p expr.Expr, sel []int32) []int32 {
	switch n := p.(type) {
	case *expr.BinaryOp:
		if col, val, ok := n.ColumnConst(); ok {
			return op.eqSel(col, val, sel)
		}
		// Truthy(AND) is both-truthy under 3VL, so successive refinement
		// is exact.
		sel = op.applySel(n.Left, sel)
		if len(sel) == 0 {
			return sel
		}
		return op.applySel(n.Right, sel)
	case *expr.IsNull:
		isNull := op.tab.ColumnNulls(n.Operand.(*expr.ColumnRef).Index)
		out := sel[:0]
		for _, r := range sel {
			if isNull(int(r)) != n.Negate {
				out = append(out, r)
			}
		}
		return out
	}
	return sel // unreachable: expr.ErrFree admits only the cases above
}

// eqSel is the column = constant kernel. Typed fast paths cover same-kind
// int/string/bool compares; everything else (floats, cross-kind) goes
// through per-row SQLEqual, which is still error-free and bit-identical to
// the prepared comparison's Eval.
func (op *foldOp) eqSel(col int, val value.Value, sel []int32) []int32 {
	out := sel[:0]
	if val.IsNull() {
		return out // NULL compares to nothing; never truthy
	}
	if ints, isNull, ok := op.tab.IntColumn(col); ok && val.Kind() == value.KindInt {
		c := val.Int()
		for _, r := range sel {
			if !isNull(int(r)) && ints[r] == c {
				out = append(out, r)
			}
		}
		return out
	}
	if strs, isNull, ok := op.tab.StringColumn(col); ok && val.Kind() == value.KindString {
		c := val.Str()
		for _, r := range sel {
			if !isNull(int(r)) && strs[r] == c {
				out = append(out, r)
			}
		}
		return out
	}
	if bools, isNull, ok := op.tab.BoolColumn(col); ok && val.Kind() == value.KindBool {
		c := val.Bool()
		for _, r := range sel {
			if !isNull(int(r)) && bools[r] == c {
				out = append(out, r)
			}
		}
		return out
	}
	get := op.tab.CellGetter(col)
	for _, r := range sel {
		if value.SQLEqual(get(int(r)), val).Truthy() {
			out = append(out, r)
		}
	}
	return out
}
