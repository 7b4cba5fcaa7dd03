package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
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
// foldWorker.fold: resolve a vector of rows to dense group ids in the
// partition's group table (grouptable.go), creating and charging a group
// where its key first appears, then advance each aggregate over the whole
// vector with one kernel call (foldWorker.advance) — whatever feeds it and
// however many workers share the input. Aggregates over the disjoint CASE
// arms of a horizontal plan are the one refinement: a row reaches only the
// arms its values select (dispatch.go).
//
// State. A group is an id, not an object: its key sits in the group table's
// flat arrays, its aggregates in the partition's — one 8-byte cell and one
// tag byte per (group, sum / count / numeric min / max), strided by the
// fold's cell count, so a 50-arm Hpct fold grows the same two arrays a plain
// one does — and only avg, count(DISTINCT) and min / max over anything else
// keep an accumulator object per group (aggregate.go).
//
// Inputs. Keys and arguments are arbitrary bound expressions. Over a stored
// table (a scan under zero or more filters) the operator reads the column
// vectors directly, batch.Size (= govStride) rows at a time: error-free
// filters (expr.ErrFree) refine a pooled selection vector, and a typed
// kernel loops a bare INTEGER or REAL column straight into the cells. Any
// other argument is boxed — a bare column through its typed
// storage.Table.CellGetter, anything computed against a storage.RowView that
// boxes each referenced cell at most once per row — and added with sumAcc's
// rules. A fold in which something can raise — a filter, key or argument
// that is computed, sum() over a VARCHAR or BOOLEAN — runs row-major, each
// row a vector of one: filter, look up, charge, accumulate in spec order, so
// the first error and the MaxGroups trip point are the ones a sequential
// scan would raise. Any other input (a join, a scan already advanced, rows
// handed over by another stage) is drained through the iterator interface,
// row-major, into the same fold.
//
// Parallelism. foldPartitions splits the input into contiguous row ranges,
// folds each into a private foldPart, and merges them in ascending partition
// order: each group of the higher partition probes the lower one's table
// with its stored hash, a new group appends, a shared one adds cell to cell.
// A group's global first occurrence lies in its lowest-numbered partition
// and rows keep their order within a partition, so that merge order
// reproduces the sequential first-appearance order — and float addition
// order — exactly. A stored table is never copied — workers read disjoint
// ranges of its immutable vectors; a join or derived input is materialized
// (and charged against MaxRows/MaxBytes) only when it is about to fan out,
// because iterators reuse row buffers and cannot be shared across goroutines.
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
		sp.SetRows(-1, int64(part.tab.len()))
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
					groups = parts[w].tab.len()
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
		partials += parts[w].tab.len()
		if w > 0 {
			err = parts[0].absorb(parts[w])
		}
	}
	if err != nil {
		ms.Attr("error", err.Error())
		return nil, fan, err
	}
	ms.SetRows(int64(partials), int64(parts[0].tab.len()))
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

// foldInput is one key or aggregate-argument expression as the boxed route
// reads it: get boxes it for a row of the stored table, e evaluates against
// the row view (or the drained row). Both fields nil is an absent argument.
type foldInput struct {
	get func(row int) value.Value // bare column of the stored table, of type typ
	typ storage.ColumnType
	e   expr.Expr // anything else, evaluated against the row view
}

// keyCols is how a fold reads one key tuple off a row — its group key, or
// the columns an arm family tests. When every component is a bare INTEGER
// column of the stored table (≤ maxIntKeys) the tuple is read straight from
// the raw vectors and NULL bitmaps (ints, nulls) into the group table's
// fixed-width route; otherwise each is boxed (in) and encoded with
// value.AppendKey.
type keyCols struct {
	in    []foldInput
	ints  [][]int64
	nulls []storage.NullBitmap
}

// The kernels of foldWorker.advance.
const (
	kernelBoxed uint8 = iota // box the argument; the slot says where it goes
	kernelCount              // count(*), or of a bare column: its NULL bitmap is all it reads
	kernelInt                // sum / min / max of a bare INTEGER column
	kernelFloat              // sum / min / max of a bare REAL column
)

// aggSlot is one spec as the workers run it: where its per-group state lives
// — cell indexes the group's cells (a count, a sum, the extreme of a bare
// numeric column), acc its accumulator objects (everything else); the one
// that does not apply is -1 — which kernel advances it, over what, and its
// place in the dimension dispatch (dispatch.go): the arm family it belongs
// to (-1: none — a row reaches it whatever its values), its entry there, and
// whether it is a sum arm whose ELSE 0 is settled at emit.
type aggSlot struct {
	kernel        uint8
	fn            expr.AggFn
	cell, acc     int
	in            foldInput // kernelBoxed
	ints          []int64
	flts          []float64
	nulls         storage.NullBitmap
	family, entry int32
	elseZero      bool
}

// foldOp is one planned fold, shared read-only by its workers.
type foldOp struct {
	in    iterator
	specs []aggSpec
	keys  keyCols
	slots []aggSlot // per spec
	// cells, accs and soles are the strides of a partition's state arrays;
	// soles is len(families), or 0 with no ELSE 0 to settle.
	cells, accs, soles int
	families           []*armFamily
	// rowMajor: something in the fold can raise, so rows go through one at a
	// time and specs in ascending order (see the header comment).
	rowMajor bool
	// tab is set when in is a fresh scan of a stored table under filters
	// (innermost first): workers then fold row ranges of tab directly.
	tab     *storage.Table
	scan    *tableScan
	filters []*filterIter
	vector  bool // every filter is error-free → vectorized selection
	// mem is the materialized input of a fan-out over anything else.
	mem *memRelation
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
	}
	op.keys = op.keyCols(keyExprs)
	op.rowMajor = !op.vector
	for _, k := range op.keys.in {
		op.rowMajor = op.rowMajor || k.get == nil
	}
	for i, arg := range op.planDispatch(in.schema()) {
		op.planSlot(&op.slots[i], specs[i].call, arg)
	}
	return op
}

// column reports the stored-table column e names, if it is a bare one.
func (op *foldOp) column(e expr.Expr) (int, bool) {
	cr, ok := e.(*expr.ColumnRef)
	if !ok || op.tab == nil || !cr.Bound() || cr.Index >= op.tab.NumCols() {
		return 0, false
	}
	return cr.Index, true
}

func (op *foldOp) input(e expr.Expr) foldInput {
	if col, ok := op.column(e); ok {
		return foldInput{get: op.tab.CellGetter(col), typ: op.tab.Schema()[col].Type}
	}
	return foldInput{e: e}
}

// keyCols picks the route for a key tuple over exprs.
func (op *foldOp) keyCols(exprs []expr.Expr) keyCols {
	var kc keyCols
	for _, e := range exprs {
		col, ok := op.column(e)
		if !ok || len(exprs) > maxIntKeys || op.tab.Schema()[col].Type != storage.TypeInt {
			kc = keyCols{in: make([]foldInput, len(exprs))}
			for i, e := range exprs {
				kc.in[i] = op.input(e)
			}
			return kc
		}
		ints, _, _ := op.tab.IntColumn(col)
		kc.ints, kc.nulls = append(kc.ints, ints), append(kc.nulls, op.tab.Nulls(col))
	}
	return kc
}

// planSlot places one spec's state and picks its kernel: arg is what the
// spec accumulates — its argument, or its THEN under dispatch.
func (op *foldOp) planSlot(s *aggSlot, call *expr.AggCall, arg expr.Expr) {
	s.fn, s.cell, s.acc = call.Fn, -1, -1
	col, bare := op.column(arg)
	kind, known := value.KindNull, arg == nil // what arg evaluates to, when the plan can tell
	if bare {
		kind, known, s.nulls = op.tab.Schema()[col].Type.Kind(), true, op.tab.Nulls(col)
	} else if arg != nil {
		var v value.Value
		v, known = expr.ConstValue(arg)
		kind = v.Kind()
	}
	numeric := kind == value.KindInt || kind == value.KindFloat
	sum, extreme := call.Fn == expr.AggSum, call.Fn == expr.AggMin || call.Fn == expr.AggMax
	switch inCell := !call.Distinct && (sum || call.Fn == expr.AggCount || extreme && bare && numeric); {
	case !inCell:
		s.acc, op.accs = op.accs, op.accs+1
		_, err := newAccumulator(call) // as every new group will
		op.rowMajor = op.rowMajor || err != nil
	case call.Star || bare && call.Fn == expr.AggCount:
		s.kernel = kernelCount
	case bare && kind == value.KindInt:
		s.kernel = kernelInt
		s.ints, _, _ = op.tab.IntColumn(col)
	case bare && kind == value.KindFloat:
		s.kernel = kernelFloat
		s.flts, _, _ = op.tab.FloatColumn(col)
	}
	if s.acc < 0 {
		s.cell, op.cells = op.cells, op.cells+1
	}
	if s.kernel == kernelBoxed {
		s.in = op.input(arg)
	}
	// A computed argument can raise, and so can sum() — avg() sums — itself.
	op.rowMajor = op.rowMajor || !known || (sum || call.Fn == expr.AggAvg) && !numeric && kind != value.KindNull
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

// emit pushes the merged groups into out in id order — first appearance —
// the key values followed by one result per spec, and returns how many went.
// They go a batch of ids at a time as columns: a fixed-width key component
// copied from the group table's integers and masks, a count or the sum or
// extreme of a bare numeric column from its cells, a byte-route key, an
// accumulator's result and any other cell boxed. Only when out projects them
// through a computed item or HAVING is each group boxed into one row buffer
// and pushed by itself.
func (op *foldOp) emit(part *foldPart, gov *governor, out rowSink) (int, error) {
	k, width := len(op.keys.in), part.tab.width
	if k+width == 0 && part.tab.len() == 0 {
		// A global aggregate over zero input rows still yields one row.
		part.tab.lookupBytes(0, nil, true)
		if err := part.addGroup(nil); err != nil {
			return 0, err
		}
	}
	n := part.tab.len()
	out.reserve(n)
	if p, ok := out.(*projector); ok && !p.moves {
		return op.emitRows(part, gov, p)
	}
	vecs := make([]storage.Vector, k+width+len(op.specs))
	cols := make([]*storage.Vector, len(vecs))
	for i := range vecs {
		cols[i] = &vecs[i]
	}
	for base := 0; base < n; base += batch.Size {
		if err := gov.check(); err != nil {
			return base, err
		}
		bn := min(batch.Size, n-base)
		for i := 0; i < k; i++ {
			v, keys := cols[i], part.keyVals[base*k+i:]
			if in := &op.keys.in[i]; in.get != nil {
				// A bare column's key is NULL or of the column's type.
				v.Resize(in.typ, bn)
				for g := 0; g < bn; g++ {
					v.Set(g, keys[g*k])
				}
				continue
			}
			v.ResizeBoxed(bn)
			for g := range v.Vals {
				v.Vals[g] = keys[g*k]
			}
		}
		for i := 0; i < width; i++ {
			v := cols[i]
			v.Resize(storage.TypeInt, bn)
			for g := range v.Ints {
				if v.Ints[g] = part.tab.ints[(base+g)*width+i]; part.tab.masks[base+g]>>i&1 != 0 {
					v.SetNull(g)
				}
			}
		}
		for g := base; g < base+bn && op.soles > 0; g++ {
			op.settleElse(part, g)
		}
		for i := range op.slots {
			s, v := &op.slots[i], cols[k+width+i]
			num, tag := part.num[base*op.cells:], part.tag[base*op.cells:]
			// A cell's type is the plan's to tell: a count's, or that of a bare
			// INTEGER column's sum or extreme, is never a REAL, and a bare REAL
			// column's is never an INTEGER unless an ELSE 0 was settled into it.
			switch {
			case s.acc >= 0:
				v.ResizeBoxed(bn)
				for g := range v.Vals {
					v.Vals[g] = part.accs[(base+g)*op.accs+s.acc].result()
				}
			case s.fn == expr.AggCount || s.kernel == kernelInt:
				v.Resize(storage.TypeInt, bn)
				for g := range v.Ints {
					if v.Ints[g] = num[g*op.cells+s.cell]; s.fn != expr.AggCount && tag[g*op.cells+s.cell] == cellNone {
						v.SetNull(g)
					}
				}
			case s.kernel == kernelFloat && !s.elseZero:
				v.Resize(storage.TypeFloat, bn)
				for g := range v.Flts {
					if v.Flts[g] = math.Float64frombits(uint64(num[g*op.cells+s.cell])); tag[g*op.cells+s.cell] == cellNone {
						v.SetNull(g)
					}
				}
			default:
				v.ResizeBoxed(bn)
				for g := range v.Vals {
					v.Vals[g] = cellResult(s.fn, num[g*op.cells+s.cell], tag[g*op.cells+s.cell])
				}
			}
		}
		if err := out.pushCols(cols, bn); err != nil {
			return base, err
		}
	}
	return n, nil
}

// emitRows is emit for a projector that computes: each group boxed into one
// row buffer and projected by itself.
func (op *foldOp) emitRows(part *foldPart, gov *governor, p *projector) (int, error) {
	k, width, n := len(op.keys.in), part.tab.width, part.tab.len()
	row := make([]value.Value, 0, k+width+len(op.specs))
	for g := 0; g < n; g++ {
		if g%govStride == 0 {
			if err := gov.check(); err != nil {
				return g, err
			}
		}
		op.settleElse(part, g)
		row = append(row[:0], part.keyVals[g*k:(g+1)*k]...)
		for i := 0; i < width; i++ {
			if part.tab.masks[g]>>i&1 != 0 {
				row = append(row, value.Null)
			} else {
				row = append(row, value.NewInt(part.tab.ints[g*width+i]))
			}
		}
		for i := range op.slots {
			if s := &op.slots[i]; s.acc >= 0 {
				row = append(row, part.accs[g*op.accs+s.acc].result())
			} else {
				row = append(row, cellResult(s.fn, part.num[g*op.cells+s.cell], part.tag[g*op.cells+s.cell]))
			}
		}
		if err := p.push(row); err != nil {
			return g, err
		}
	}
	return n, nil
}

// foldPart is one partition's fold state: its group table, the per-group
// state arrays the ids index, and the partition's input statistics.
type foldPart struct {
	op  *foldOp
	tab groupTable
	// keyVals, on the byte-key route, holds group g's boxed key at
	// [g*k, (g+1)*k): the first-appearance values — the canonical key bytes
	// cannot give a -0.0 back.
	keyVals []value.Value
	// num and tag hold cell c of group g at g*op.cells + c (aggregate.go).
	num []int64
	tag []uint8
	// accs holds accumulator object a of group g at g*op.accs + a.
	accs []accumulator
	// soles holds the sole state of arm family f in group g at
	// g*op.soles + f (dispatch.go).
	soles []int32
	// consumed counts input rows read; passed, rows surviving each filter.
	consumed int64
	passed   []int64
}

// addGroup extends the state arrays by the group the table just gave the
// next id; keyVals is its boxed key on the byte-key route.
func (p *foldPart) addGroup(keyVals []value.Value) error {
	op := p.op
	p.keyVals = append(grown(p.keyVals, len(keyVals)), keyVals...)
	p.num, p.tag = extended(p.num, op.cells), extended(p.tag, op.cells)
	p.soles = extended(p.soles, op.soles)
	for i := range op.slots {
		if op.slots[i].acc >= 0 {
			acc, err := newAccumulator(op.specs[i].call)
			if err != nil {
				return err
			}
			p.accs = append(grown(p.accs, op.accs), acc)
		}
	}
	return nil
}

// absorb merges the next-higher partition into p, an id remap: each group of
// from probes p's table with the hash from already stored; one new to p
// takes the next id — so ids stay in global first-appearance order — and
// from's state, a shared one merges state into state.
func (p *foldPart) absorb(from *foldPart) error {
	op := p.op
	k, nc, na, ns := len(op.keys.in), op.cells, op.accs, op.soles
	for g := 0; g < from.tab.len(); g++ {
		var id int32
		var fresh bool
		if w := p.tab.width; w > 0 {
			id, fresh = p.tab.lookupInts(from.tab.hashes[g], from.tab.ints[g*w:(g+1)*w], from.tab.masks[g], true)
		} else {
			id, fresh = p.tab.lookupBytes(from.tab.hashes[g], from.tab.byteKey(g), true)
		}
		if fresh {
			p.keyVals = append(grown(p.keyVals, k), from.keyVals[g*k:(g+1)*k]...)
			p.num = append(grown(p.num, nc), from.num[g*nc:(g+1)*nc]...)
			p.tag = append(grown(p.tag, nc), from.tag[g*nc:(g+1)*nc]...)
			p.accs = append(grown(p.accs, na), from.accs[g*na:(g+1)*na]...)
			p.soles = append(grown(p.soles, ns), from.soles[g*ns:(g+1)*ns]...)
			continue
		}
		for i := range op.slots {
			if s := &op.slots[i]; s.acc >= 0 {
				if err := p.accs[int(id)*na+s.acc].merge(from.accs[g*na+s.acc]); err != nil {
					return err
				}
			} else {
				to, at := int(id)*nc+s.cell, g*nc+s.cell
				mergeCell(s.fn, &p.num[to], &p.tag[to], from.num[at], from.tag[at])
			}
		}
		for f, sole := range from.soles[g*ns : (g+1)*ns] {
			seeSole(&p.soles[int(id)*ns+f], sole)
		}
	}
	p.consumed += from.consumed
	for i, n := range from.passed {
		p.passed[i] += n
	}
	return nil
}

// foldWorker folds one partition. gov shares the statement's counters but
// watches the fan-out's cancel context, so a sibling's failure stops this
// fold within one stride.
type foldWorker struct {
	op   *foldOp
	gov  *governor
	part *foldPart
	// row is what computed expressions evaluate against: view, positioned by
	// the row-major loop over a stored table, or box, the row just drained.
	row  expr.Row
	view *storage.RowView
	box  rowBox
	// Scratch: a key's boxed values and encoding; the group id of each row of
	// the vector being folded and, family after family, its entry.
	keyVals  []value.Value
	keyBuf   []byte
	gid, ent []int32
}

// run folds partition [lo, hi) of the op's input: rows of the stored table,
// rows of the materialized copy, or — one worker only — the whole iterator.
// Bound expression trees are immutable and stateless under Eval, so workers
// share them.
func (op *foldOp) run(gov *governor, lo, hi int) (*foldPart, error) {
	part := &foldPart{op: op, tab: groupTable{width: len(op.keys.ints)}, passed: make([]int64, len(op.filters))}
	w := &foldWorker{op: op, gov: gov, part: part, keyVals: make([]value.Value, len(op.keys.in))}
	w.keyBuf = batch.Default.GetBytes(64)
	defer func() { batch.Default.PutBytes(w.keyBuf) }()
	// One pooled vector holds the selection, the group ids and each family's
	// entries: as long as the batches of a stored table, one row otherwise.
	n := 1
	if op.tab != nil {
		n = min(batch.Size, hi-lo)
	}
	sel := batch.Default.GetSel(n * (2 + len(op.families)))
	defer batch.Default.PutSel(sel)
	w.gid, w.ent = sel[n:2*n], sel[2*n:n*(2+len(op.families))]
	switch {
	case op.tab == nil && op.mem != nil:
		return part, w.drain(&memRelation{rows: op.mem.rows[lo:hi]}, sel[:1])
	case op.tab == nil:
		return part, w.drain(op.in, sel[:1])
	case op.rowMajor:
		w.view = op.tab.NewRowView()
		w.row = w.view
	}
	return part, w.foldTable(lo, hi, sel[:n])
}

// fold is the operator's one body. It resolves the rows of sel to group ids —
// creating, and charging, the groups that first appear among them — and, per
// arm family, to the entry each row's column values select, which it shows
// the group's sole state (dispatch.go); then it advances every spec outside
// a family by every row, and the arms of an entry by the rows that selected
// it.
func (w *foldWorker) fold(sel []int32) error {
	op, n, gid := w.op, len(w.gid), w.gid[:len(sel)]
	if err := w.resolve(&op.keys, &w.part.tab, sel, gid, true); err != nil {
		return err
	}
	for fi, f := range op.families {
		ent := w.ent[fi*n:][:len(sel)]
		if err := w.resolve(&f.keys, &f.tab, sel, ent, false); err != nil {
			return err
		}
		for k := 0; k < len(ent) && op.soles > 0; k++ {
			seeSole(&w.part.soles[int(gid[k])*op.soles+fi], ent[k]+2)
		}
	}
	for i := range op.slots {
		// Row-major, sel is one row and the specs it reaches advance in
		// ascending order, so the first error it raises is the one the
		// arm-by-arm reference raises.
		if s := &op.slots[i]; s.family < 0 || op.rowMajor && w.ent[int(s.family)*n] == s.entry {
			if err := w.advance(i, sel, gid); err != nil {
				return err
			}
		}
	}
	// Nothing can raise in a vector of many rows, so order is free: the arms
	// advance behind the specs every row reaches, each row's in turn.
	for fi := 0; fi < len(op.families) && !op.rowMajor; fi++ {
		for k, e := range w.ent[fi*n:][:len(sel)] {
			if e < 0 {
				continue
			}
			for _, i := range op.families[fi].entries[e] {
				if err := w.advance(int(i), sel[k:k+1], gid[k:k+1]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// resolve writes to ids the id in t of each row's key tuple. With groups set
// t is the partition's group table and a key's first appearance makes — and
// charges — its group; without, an absent key is id -1.
func (w *foldWorker) resolve(kc *keyCols, t *groupTable, sel, ids []int32, groups bool) error {
	if t.width+len(kc.in) == 0 && t.len() > 0 {
		clear(ids) // the global aggregate's one group
		return nil
	}
	var tuple [maxIntKeys]int64
	key := tuple[:t.width]
	for k, r := range sel {
		var fresh bool
		if t.width > 0 {
			mask := uint8(0)
			for c, col := range kc.ints {
				if key[c] = col[r]; kc.nulls[c].Get(int(r)) {
					key[c], mask = 0, mask|1<<c
				}
			}
			ids[k], fresh = t.lookupInts(t.hashInts(key, mask), key, mask, groups)
		} else {
			buf := w.keyBuf[:0]
			for i := range kc.in {
				var v value.Value
				if in := &kc.in[i]; in.get != nil {
					v = in.get(int(r))
				} else if x, err := in.e.Eval(w.row); err != nil {
					return err
				} else {
					v = x
				}
				if buf = value.AppendKey(buf, v); groups {
					w.keyVals[i] = v
				}
			}
			w.keyBuf = buf
			ids[k], fresh = t.lookupBytes(t.hashBytes(buf), buf, groups)
		}
		if fresh {
			// Group creation is the unbounded allocation; charge it. Groups
			// shared across partitions are counted once per partition, which
			// over-approximates — a budget, not an exact census.
			err := w.gov.addGroups(1)
			if err == nil {
				err = w.part.addGroup(w.keyVals)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// advance is the kernel call: it adds the rows of sel, whose groups are gid,
// to spec i. The typed kernels read a column vector and its NULL bitmap and
// cannot fail; the boxed one applies the accumulators' rules to any value.
func (w *foldWorker) advance(i int, sel, gid []int32) error {
	s, n := &w.op.slots[i], w.op.cells
	num, tag := w.part.num, w.part.tag
	sum, least := s.fn == expr.AggSum, s.fn == expr.AggMin
	switch s.kernel {
	case kernelCount: // count(*) has no bitmap: nothing is NULL
		for k, r := range sel {
			if !s.nulls.Get(int(r)) {
				num[int(gid[k])*n+s.cell]++
			}
		}
	case kernelInt:
		for k, r := range sel {
			if s.nulls.Get(int(r)) {
				continue
			}
			c, v := int(gid[k])*n+s.cell, s.ints[r]
			switch {
			case sum:
				num[c] += v // from the zero a new cell holds
			case tag[c] == cellNone || least && v < num[c] || !least && v > num[c]:
				num[c] = v
			}
			tag[c] = cellInt
		}
	case kernelFloat:
		for k, r := range sel {
			if s.nulls.Get(int(r)) {
				continue
			}
			c, v := int(gid[k])*n+s.cell, s.flts[r]
			switch have := math.Float64frombits(uint64(num[c])); {
			case tag[c] == cellNone:
				// The first value initialises: 0 + -0.0 would lose the sign.
			case sum:
				v = have + v
			case least && !(v < have) || !least && !(v > have):
				v = have
			}
			num[c], tag[c] = floatCell(v), cellFloat
		}
	default:
		for k, r := range sel {
			v, err := value.Null, error(nil) // an absent argument stays NULL
			if s.in.get != nil {
				v = s.in.get(int(r))
			} else if s.in.e != nil {
				v, err = s.in.e.Eval(w.row)
			}
			switch g := int(gid[k]); {
			case err != nil:
			case s.acc >= 0:
				err = w.part.accs[g*w.op.accs+s.acc].add(v)
			case sum:
				err = addSum(&num[g*n+s.cell], &tag[g*n+s.cell], v)
			case !v.IsNull():
				num[g*n+s.cell]++
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// drain folds every row an iterator yields, row-major, checking the governor
// each stride (base-table leaves also charge their scans; this covers
// materialized inputs).
func (w *foldWorker) drain(in iterator, one []int32) error {
	w.row = &w.box
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
		w.box.vals = row
		if err := w.fold(one); err != nil {
			return err
		}
	}
}

// foldTable folds rows [lo, hi) of the stored table a batch at a time,
// charging the governor per batch: same stride, totals, and typed errors as
// the scan iterator.
func (w *foldWorker) foldTable(lo, hi int, sel []int32) error {
	op := w.op
	for base := lo; base < hi; base += batch.Size {
		bn := min(batch.Size, hi-base)
		sel = op.selectBatch(base, bn, sel, w.part.passed)
		var err error
		if !op.rowMajor {
			err = w.fold(sel)
		}
		for k := 0; op.rowMajor && k < len(sel) && err == nil; k++ {
			err = w.foldRow(sel[k : k+1])
		}
		if w.part.consumed += int64(bn); err == nil {
			err = w.gov.addScanned(int64(bn))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// foldRow is the row-major step over a stored table. Filters that can error
// were left to it: they run here, innermost first, interleaved with the fold,
// so the first error is the one a sequential scan raises.
func (w *foldWorker) foldRow(one []int32) error {
	w.view.Seek(int(one[0]))
	for i := 0; !w.op.vector && i < len(w.op.filters); i++ {
		v, err := w.op.filters[i].pred.Eval(w.view)
		if err != nil || !v.Truthy() {
			return err
		}
		w.part.passed[i]++
	}
	return w.fold(one)
}

// selectBatch fills sel with the row ids in [base, base+bn) and, when the
// filters are error-free, refines it through each, recording per-filter
// survivor counts.
func (op *foldOp) selectBatch(base, bn int, sel []int32, passed []int64) []int32 {
	sel = rowRange(sel, base, bn)
	for i := 0; op.vector && i < len(op.filters); i++ {
		if len(sel) > 0 {
			sel = applySel(op.tab, op.filters[i].pred, sel)
		}
		passed[i] += int64(len(sel))
	}
	return sel
}

// The selection kernels: the engine's one vectorized filter. The fold, the
// single-table UPDATE and DELETE (dml.go) and the plain select (columns.go)
// all refine a batch's row ids through them.

// tableFilter is a bound predicate over one stored table as a batch of row
// ids is refined through it: the selection kernels take the leading conjuncts
// they admit, a RowView walk evaluates what is left. A conjunct is taken only
// if it is error-free and two-valued on this table, or the whole predicate is
// error-free: AND skips its right side only behind a definitely false left,
// so a conjunct that can raise must still see the rows an earlier one left
// NULL.
type tableFilter struct {
	tab          *storage.Table
	kernel, rest expr.Expr // either may be nil
	view         *storage.RowView
}

func newTableFilter(tab *storage.Table, pred expr.Expr) tableFilter {
	f := tableFilter{tab: tab}
	switch {
	case pred == nil:
	case expr.ErrFree(pred):
		f.kernel = pred
	default:
		conjuncts := splitConjuncts(pred)
		lead := 0
		for lead < len(conjuncts) && expr.ErrFree(conjuncts[lead]) && twoValued(tab, conjuncts[lead]) {
			lead++
		}
		f.kernel, f.rest, f.view = andAll(conjuncts[:lead]), andAll(conjuncts[lead:]), tab.NewRowView()
	}
	return f
}

// twoValued reports whether the error-free predicate p is never NULL on tab:
// its equality tests are against non-NULL constants, on columns holding none.
func twoValued(tab *storage.Table, p expr.Expr) bool {
	b, ok := p.(*expr.BinaryOp)
	if !ok {
		return true // IS [NOT] NULL
	}
	if col, val, ok := b.ColumnConst(); ok {
		return !val.IsNull() && len(tab.Nulls(col)) == 0
	}
	return twoValued(tab, b.Left) && twoValued(tab, b.Right)
}

// apply narrows sel, in place, to the rows the predicate admits. On an error
// the rows admitted before the failing one are returned with it.
func (f *tableFilter) apply(sel []int32) ([]int32, error) {
	if f.kernel != nil && len(sel) > 0 {
		sel = applySel(f.tab, f.kernel, sel)
	}
	if f.rest == nil {
		return sel, nil
	}
	out := sel[:0]
	for _, r := range sel {
		f.view.Seek(int(r))
		v, err := f.rest.Eval(f.view)
		if err != nil {
			return out, err
		}
		if v.Truthy() {
			out = append(out, r)
		}
	}
	return out, nil
}

// rowRange resets sel to the row ids [base, base+bn).
func rowRange(sel []int32, base, bn int) []int32 {
	sel = sel[:bn]
	for i := range sel {
		sel[i] = int32(base + i)
	}
	return sel
}

// applySel refines a selection vector over tab's rows through one error-free
// predicate.
func applySel(tab *storage.Table, p expr.Expr, sel []int32) []int32 {
	switch n := p.(type) {
	case *expr.BinaryOp:
		if col, val, ok := n.ColumnConst(); ok {
			return eqSel(tab, col, val, sel)
		}
		// Truthy(AND) is both-truthy under 3VL, so successive refinement
		// is exact.
		sel = applySel(tab, n.Left, sel)
		if len(sel) == 0 {
			return sel
		}
		return applySel(tab, n.Right, sel)
	case *expr.IsNull:
		out, nulls := sel[:0], tab.Nulls(n.Operand.(*expr.ColumnRef).Index)
		for _, r := range sel {
			if nulls.Get(int(r)) != n.Negate {
				out = append(out, r)
			}
		}
		return out
	}
	return sel // unreachable: expr.ErrFree admits only the cases above
}

// eqSel is the column = constant kernel. Typed loops over the raw vector and
// the NULL bitmap cover same-kind int/string/bool compares; everything else
// (floats, cross-kind) goes through per-row SQLEqual, which is still
// error-free and bit-identical to the prepared comparison's Eval.
func eqSel(tab *storage.Table, col int, val value.Value, sel []int32) []int32 {
	nulls := tab.Nulls(col)
	switch val.Kind() {
	case value.KindNull:
		return sel[:0] // NULL compares to nothing; never truthy
	case value.KindInt:
		if ints, _, ok := tab.IntColumn(col); ok {
			return eqKernel(ints, nulls, val.Int(), sel)
		}
	case value.KindString:
		if strs, _, ok := tab.StringColumn(col); ok {
			return eqKernel(strs, nulls, val.Str(), sel)
		}
	case value.KindBool:
		if bools, _, ok := tab.BoolColumn(col); ok {
			return eqKernel(bools, nulls, val.Bool(), sel)
		}
	}
	out, get := sel[:0], tab.CellGetter(col)
	for _, r := range sel {
		if value.SQLEqual(get(int(r)), val).Truthy() {
			out = append(out, r)
		}
	}
	return out
}

func eqKernel[T comparable](vals []T, nulls storage.NullBitmap, c T, sel []int32) []int32 {
	out := sel[:0]
	for _, r := range sel {
		if vals[r] == c && !nulls.Get(int(r)) {
			out = append(out, r)
		}
	}
	return out
}
