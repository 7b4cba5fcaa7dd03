package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
)

// The fold operator: every GROUP BY the engine runs — and every SELECT
// DISTINCT, a fold with keys and no aggregates, and every PARTITION BY list of
// a window — goes through foldWorker.consume: resolve a batch of tuples to
// dense group ids in the partition's group table (grouptable.go), creating and
// charging a group where its key first appears, then advance each aggregate
// over the whole batch with one kernel call (foldWorker.advance). Aggregates
// over the disjoint CASE arms of a horizontal plan are the one refinement
// (dispatch.go): a tuple reaches only the arms its values select, so the
// batch is resolved to entries too, sorted by entry, and each arm advances
// over its entry's run of tuples with one kernel call (advanceArms).
//
// State. A group is an id, not an object: its key is one directory cell on
// the direct route and slots in the group table's flat arrays on the hash
// route (grouptable.go), its aggregates sit in the partition's — one 8-byte
// cell and one tag byte per (group, sum / count / numeric min / max), strided
// by the fold's cell count, so a 50-arm Hpct fold grows the same two arrays a
// plain one does — and only avg, count(DISTINCT) and min / max over anything
// else keep an accumulator object per group (aggregate.go).
//
// Inputs. The fold is the last stage of its pipeline (columns.go): every
// worker runs the pipeline over its range of the source and folds the
// batches of id tuples it hands on. Keys and arguments are arbitrary bound
// expressions. A bare INTEGER or REAL column of a FROM table that no outer
// join NULL-extends is read straight off its vector by the tuple's id: a
// typed kernel loops it into the cells: a loop per function, which tests
// neither the function nor — but for a REAL extreme — the cell's tag, a new
// cell starting at its function's identity (initCell). What the column and the
// aggregate settle is settled once a call, not a tuple: the plan keeps a
// column's NULL bitmap only when some bit is set (storage.NullBitmap.Trim), so
// a NULL-free column is read by a loop without the NULL test, and so is a
// direct-route INTEGER or VARCHAR key or a hash-route BOOLEAN one read off
// one (keys.go: readCells, readBools). Any other argument is boxed — a bare
// column through its typed storage.Table.CellGetter, anything computed against
// the batch positioned on the tuple — and added with sumAcc's rules. What can
// raise — a computed key or argument, sum() over a VARCHAR or BOOLEAN — is
// evaluated over the whole batch before anything folds, and its first raising
// tuple cuts the batch there (foldWorker.consume): the groups of the tuples
// before the cut — and the cut tuple's own, when an argument raised there —
// are made and charged first, so the first error and the MaxGroups trip point
// are the ones a row-at-a-time fold raises.
//
// Parallelism. foldPartitions splits the source into contiguous ranges, folds
// each into a private foldPart, and merges them in ascending partition order:
// each group of the higher partition is looked up in the lower one's table —
// by its cell, or with its stored hash — a new group appends, a shared one
// adds cell to cell. A group's global first occurrence lies in its
// lowest-numbered partition and tuples keep their order within a partition,
// so that merge order reproduces the sequential first-appearance order
// exactly (a REAL sum's last bit may not: DESIGN.md, "Parallel partitioned
// aggregation").
// Nothing is copied to fan out: workers read disjoint ranges of the first
// table's immutable vectors, and a join's workers share its build side.
//
// Early stop. A fold with no aggregate — SELECT DISTINCT, GROUP BY without
// one: the Hpct feedback query, the advisor's fine-group scan, CountDistinct
// — produces nothing but its groups, so a partition whose directory holds
// every cell its key can take, ∏(span − 1) when no key column held a NULL at
// plan time, has its result: its worker ends the run there (errSaturated,
// saturation). It stops only where nothing between the scan and the fold can
// raise, so the groups, their order and the first error are the full scan's.
//
// Snapshot. planFold counts the source rows once, and the fold reads exactly
// those: the key's bounds, NULL checks and vectors are read at the same
// moment, so every key it meets lies within its directory. Writers are
// serialized against a statement's readers, so no row appears between the
// two.

// Fold metrics: folds the operator ran and the source rows they read.
var (
	mBatchFolds    = obs.Default.Counter("batch.folds")
	mBatchFoldRows = obs.Default.Counter("batch.fold.rows")
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
// sibling carry the per-partition breakdown. open runs once before any fold:
// in the one worker's span, or ahead of the fan-out its workers share it in.
//
// Workers run under a cancel context derived from ctx (nil = ungoverned):
// the first failure — error, contained panic, limit hit — stops the siblings
// within one governor stride. Error selection stays deterministic: the
// lowest-numbered partition's real error wins, so a failing query reports
// the same error however many workers raced past the failing row, and a
// sibling's cancellation is reported only when nothing else failed.
func foldPartitions(ctx context.Context, span *obs.Span, parallelism, n int, open func() error,
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
		part, err := (*foldPart)(nil), open()
		if err == nil {
			part, err = fold(ctx, 0, n)
		}
		sp.End()
		if err != nil {
			sp.Attr("error", err.Error())
			return nil, sp, err
		}
		sp.SetRows(-1, int64(part.tab.len()))
		return part, sp, nil
	}

	if err := open(); err != nil {
		return nil, nil, err
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
				read, groups := int64(hi-lo), 0
				if errs[w] != nil {
					ws.Attr("error", errs[w].Error())
					cancel()
				} else {
					read, groups = parts[w].consumed, parts[w].tab.len()
				}
				ws.End()
				ws.SetRows(read, int64(groups))
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

// hashAggregate folds the tuples of in and pushes one row per group into out
// — the key values followed by one result per spec, groups in
// first-appearance order — returning the group count. ec.span, when set, is
// the consumer stage's span the fold's spans attach to.
func hashAggregate(in planNode, keyExprs []expr.Expr, specs []aggSpec, ec execCtx, out rowSink) (int, error) {
	if ec.ref != nil {
		return ec.ref.fold(in, keyExprs, specs, ec, out)
	}
	return foldAggregate(newPipeline(in), keyExprs, specs, ec, out)
}

// foldInput is one aggregate argument as the boxed kernel reads it: get
// boxes it for a row of table t; e, what else can raise, is evaluated a batch
// at a time ahead of the fold (foldWorker.cut); c is a constant that cannot
// raise, read once at plan time. All nil is an absent argument.
type foldInput struct {
	get func(row int) value.Value // bare column of table t
	t   int
	e   expr.Expr
	c   *value.Value
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
// that does not apply is -1 — which kernel advances it, over what (a typed
// kernel reads table t's vector), and its place in the dimension dispatch
// (dispatch.go): the arm family it belongs to (-1: none — a tuple reaches it
// whatever its values), its entry there, and whether it is a sum arm whose
// ELSE 0 is settled at emit.
type aggSlot struct {
	kernel        uint8
	fn            expr.AggFn
	cell, acc     int
	in            foldInput // kernelBoxed
	t             int
	ints          []int64
	flts          []float64
	nulls         storage.NullBitmap
	family, entry int32
	elseZero      bool
}

// foldOp is one planned fold, shared read-only by its workers.
type foldOp struct {
	pipe  *pipeline
	specs []aggSpec
	keys  keyCols
	// bounds is the layout of every partition's group directory when the key
	// takes the direct route, and has no cells when it does not: partitions
	// share it, so they merge by cell.
	bounds bounds
	slots  []aggSlot // per spec
	// cells, accs and soles are the strides of a partition's state arrays;
	// soles is len(families), or 0 with no ELSE 0 to settle. init is the
	// cells a new group starts with (initCell).
	cells, accs, soles int
	init               []int64
	families           []*armFamily
	// full is how many cells the key can take when a worker may stop once
	// its partition holds them all (saturation), 0 when it may not.
	full int
	// rows is the source rows the fold reads, counted when it was planned.
	rows int
}

// planFold binds a fold to its pipeline and the source rows it counts now.
func planFold(pipe *pipeline, keyExprs []expr.Expr, specs []aggSpec) *foldOp {
	op := &foldOp{pipe: pipe, specs: specs, rows: pipe.count()}
	op.keys = op.keyCols(keyExprs)
	op.bounds, _ = directBounds(&op.keys, pipe.tabs, op.rows, nil)
	for i, arg := range op.planDispatch(pipe.sch) {
		op.planSlot(&op.slots[i], specs[i].call, arg)
	}
	op.full = op.saturation()
	return op
}

// saturation is the number of cells the key can take, ∏(span − 1), when a
// partition that holds them all can skip the rest of its rows without
// changing the result or its errors; 0 when it cannot. That takes a
// fold with no aggregate — SELECT DISTINCT, or GROUP BY with none — over a
// scan in storage order whose key takes the direct route and is all bare
// columns that held no NULL at plan time: every row then lands in one of
// those cells. And nothing between the scan and the fold may raise —
// no join, and only filters the selection kernels take whole — so a skipped
// row skips no error the reference would meet.
func (op *foldOp) saturation() int {
	p := op.pipe
	if len(op.specs) > 0 || op.bounds.cells == 0 || p.scan == nil {
		return 0
	}
	for i := range p.stages {
		st := &p.stages[i]
		if st.filter == nil || st.tables != 1 {
			return 0
		}
		if _, rest := splitFilter(p.tabs[0], st.filter.pred); rest != nil {
			return 0
		}
	}
	full := 1
	for c, col := range op.keys.cols {
		if col.e != nil || col.outer || len(col.vec.Nulls) > 0 {
			return 0
		}
		full *= int(op.bounds.span[c] - 1)
	}
	return full
}

// directBounds lays out the directory of a key of at most maxIntKeys
// INTEGER, VARCHAR and BOOLEAN columns over their ranges —
// storage.Table.IntRange: every row of the table, so every tuple the fold can
// meet; a VARCHAR column's dictionary; a BOOLEAN's [0, 1] — widened to cover
// the stored keys of consts, if any, and reports whether it fits in
// directCells cells for rows input rows. A key with a REAL or computed
// component, which has no range, does not. The fold's group key, each arm
// family (planDispatch) and a join index take the direct route by it.
func directBounds(kc *keyCols, tabs []*storage.Table, rows int, consts *groupTable) (bounds, bool) {
	n := len(kc.cols)
	if n == 0 || n > maxIntKeys {
		return bounds{}, false
	}
	var lo, hi [maxIntKeys]int64
	for c, col := range kc.cols {
		switch typ := col.vec.Type; {
		case col.vec.Boxed || typ == storage.TypeFloat:
			return bounds{}, false
		case typ == storage.TypeBool:
			lo[c], hi[c] = 0, 1
		default:
			var ok bool
			if lo[c], hi[c], ok = tabs[col.t].IntRange(col.col); !ok {
				lo[c], hi[c] = math.MaxInt64, math.MinInt64 // only NULLs: none
			}
		}
		for e := 0; consts != nil && e < consts.len(); e++ {
			if key := consts.key(e); key[n]>>c&1 == 0 {
				lo[c], hi[c] = min(lo[c], key[c]), max(hi[c], key[c])
			}
		}
	}
	return planBounds(lo[:n], hi[:n], directCells(rows))
}

// column reports the stored column e names, if it is a bare one: its table
// among the pipeline's, its position there, and whether an outer join
// NULL-extends the table.
func (op *foldOp) column(e expr.Expr) (t, col int, outer, ok bool) {
	cr, isCol := e.(*expr.ColumnRef)
	if !isCol || op.pipe == nil || !cr.Bound() {
		return 0, 0, false, false
	}
	t, col, ok = locate(op.pipe.tabs, cr.Index)
	return t, col, ok && op.pipe.nullable(t), ok
}

// input is how the boxed kernel reads an argument: a bare column of a table
// no outer join NULL-extends through its getter, anything else evaluated.
func (op *foldOp) input(e expr.Expr) foldInput {
	if t, col, outer, ok := op.column(e); ok && !outer {
		return foldInput{get: op.pipe.tabs[t].CellGetter(col), t: t}
	}
	return foldInput{e: e}
}

// keyCols lays out a key over exprs: a bare column reads its vector, a
// computed component is evaluated into a boxed one and coded.
func (op *foldOp) keyCols(exprs []expr.Expr) keyCols {
	cols := make([]keyCol, len(exprs))
	for i, e := range exprs {
		if t, c, outer, ok := op.column(e); ok {
			cols[i] = keyCol{vec: *op.pipe.tabs[t].Column(c), t: t, col: c, outer: outer}
			cols[i].vec.Nulls = cols[i].vec.Nulls.Trim()
		} else {
			cols[i] = keyCol{vec: storage.Vector{Boxed: true}, e: e}
		}
	}
	return newKeyCols(cols)
}

// planSlot places one spec's state and picks its kernel: arg is what the
// spec accumulates — its argument, or its THEN under dispatch.
func (op *foldOp) planSlot(s *aggSlot, call *expr.AggCall, arg expr.Expr) {
	s.fn, s.cell, s.acc = call.Fn, -1, -1
	t, col, outer, bare := op.column(arg)
	bare = bare && !outer
	kind, known := value.KindNull, arg == nil // what arg evaluates to, when the plan can tell
	var c *storage.Vector
	var v value.Value // a constant arg's value
	if bare {
		c = op.pipe.tabs[t].Column(col)
		kind, known, s.t, s.nulls = c.Type.Kind(), true, t, c.Nulls.Trim()
	} else if arg != nil {
		v, known = expr.ConstValue(arg)
		kind = v.Kind()
	}
	numeric := kind == value.KindInt || kind == value.KindFloat
	sum, extreme := call.Fn == expr.AggSum, call.Fn == expr.AggMin || call.Fn == expr.AggMax
	switch inCell := !call.Distinct && (sum || call.Fn == expr.AggCount || extreme && bare && numeric); {
	case !inCell:
		s.acc, op.accs = op.accs, op.accs+1
	case call.Star || bare && call.Fn == expr.AggCount:
		s.kernel = kernelCount
	case bare && kind == value.KindInt:
		s.kernel, s.ints = kernelInt, c.Ints
	case bare && kind == value.KindFloat:
		s.kernel, s.flts = kernelFloat, c.Flts
	}
	if s.acc < 0 {
		s.cell, op.cells = op.cells, op.cells+1
		op.init = append(op.init, initCell(s))
	}
	if s.kernel == kernelBoxed {
		switch {
		// A computed argument can raise, and so can sum() — avg() sums — itself.
		case (sum || call.Fn == expr.AggAvg) && (!known || !numeric && kind != value.KindNull):
			s.in = foldInput{e: sumArg{arg}}
		case bare || !known:
			s.in = op.input(arg)
		case arg != nil:
			c := v
			s.in = foldInput{c: &c}
		}
	}
}

// sumArg is the argument of a sum() or avg() that can raise: a value addSum
// refuses — not NULL, INTEGER or REAL — raises where the argument is
// evaluated, with addSum's error.
type sumArg struct{ expr.Expr }

func (a sumArg) Eval(row expr.Row) (value.Value, error) {
	v, err := a.Expr.Eval(row)
	if k := v.Kind(); err != nil || k == value.KindNull || k == value.KindInt || k == value.KindFloat {
		return v, err
	}
	return v, new(sumAcc).add(v)
}

// foldAggregate runs one fold over a pipeline and emits its groups into out.
func foldAggregate(pipe *pipeline, keyExprs []expr.Expr, specs []aggSpec, ec execCtx, out rowSink) (int, error) {
	part, err := runFold(pipe, keyExprs, specs, ec)
	if err != nil {
		return 0, err
	}
	n, err := part.op.emit(part, ec.gov, out)
	mGroupsEmitted.Add(int64(n))
	return n, err
}

// runFold plans one fold over a pipeline, runs it and returns the merged
// partition, the fold's spans attached under ec.span.
func runFold(pipe *pipeline, keyExprs []expr.Expr, specs []aggSpec, ec execCtx) (*foldPart, error) {
	return planFold(pipe, keyExprs, specs).fold(ec)
}

// fold runs the planned fold over its pipeline's source.
func (op *foldOp) fold(ec execCtx) (*foldPart, error) {
	pipe := op.pipe
	var ctx context.Context
	if ec.gov != nil {
		ctx = ec.gov.ctx
	}
	open := func() error { return pipe.open(ec.gov) }
	part, stage, err := foldPartitions(ctx, ec.span, ec.par, op.rows, open, func(ctx context.Context, lo, hi int) (*foldPart, error) {
		return op.run(ec.gov.withCtx(ctx), lo, hi)
	})
	if stage != nil {
		if err == nil {
			// A global aggregate probes nothing.
			route := "none"
			if len(op.keys.cols) > 0 {
				route = part.tab.route()
			}
			stage.Attr("keys", route)
		}
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
		if pipe.root != nil {
			// One worker's operators are timed like any run's and nest under
			// its span; a fan-out's time lives in the worker spans, so its
			// operators, nesting under the consumer's, carry none of it.
			host := stage
			if stage.Concurrent {
				host = ec.span
			}
			if err == nil {
				pipe.record(part.consumed, part.srcNs, part.stages)
			}
			host.AddChild(operatorSpans(pipe.root))
		}
	}
	if err != nil {
		return nil, err
	}
	mBatchFolds.Inc()
	mBatchFoldRows.Add(part.consumed)
	if pipe.scan != nil {
		mRowsScanned.Add(part.consumed)
	}
	return part, nil
}

// emit pushes the merged groups into out in id order — first appearance —
// the key values followed by one result per spec, and returns how many went.
// They go a batch of ids at a time as columns: a key component decoded from
// the group table's cells or slots (keyCols.column), a count or the sum or
// extreme of a bare numeric column from its cells, an accumulator's result
// and any other cell boxed. A batch is about batchSize cells, so a wide fold's batches hold
// few groups: what the batch and a projector computing over it hold is
// bounded by the batch, not the width.
func (op *foldOp) emit(part *foldPart, gov *governor, out rowSink) (int, error) {
	k := len(op.keys.cols)
	if k == 0 && part.tab.len() == 0 {
		// A global aggregate over zero input rows still yields one row.
		part.tab.lookupKey(make([]int64, part.tab.stride), true)
		if err := part.addGroup(); err != nil {
			return 0, err
		}
	}
	n := part.tab.len()
	out.reserve(n)
	cols := newVectors(k + len(op.specs))
	rows := max(1, batchSize/max(1, len(cols)))
	for base := 0; base < n; base += rows {
		if err := gov.check(); err != nil {
			return base, err
		}
		bn := min(rows, n-base)
		for i := range k {
			op.keys.column(i, &part.tab, base, bn, cols[i])
		}
		for g := base; g < base+bn && op.soles > 0; g++ {
			op.settleElse(part, g)
		}
		for i := range op.slots {
			s, v := &op.slots[i], cols[k+i]
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
			// A NULL result's slot is 0, whatever its cell started at.
			case s.fn == expr.AggCount || s.kernel == kernelInt:
				v.Resize(storage.TypeInt, bn)
				for g := range v.Ints {
					if v.Ints[g] = num[g*op.cells+s.cell]; s.fn != expr.AggCount && tag[g*op.cells+s.cell] == cellNone {
						v.Ints[g] = 0
						v.SetNull(g)
					}
				}
			case s.kernel == kernelFloat && !s.elseZero:
				v.Resize(storage.TypeFloat, bn)
				for g := range v.Flts {
					if v.Flts[g] = math.Float64frombits(uint64(num[g*op.cells+s.cell])); tag[g*op.cells+s.cell] == cellNone {
						v.Flts[g] = 0
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

// foldPart is one partition's fold state: its group table, the per-group
// state arrays the ids index, and what its run of the pipeline moved.
type foldPart struct {
	op  *foldOp
	tab groupTable
	// dict codes the values of the coded key slots and of the partition's
	// count(DISTINCT) sets.
	dict keyDict
	// num and tag hold cell c of group g at g*op.cells + c (aggregate.go).
	num []int64
	tag []uint8
	// accs holds accumulator object a of group g at g*op.accs + a.
	accs []accumulator
	// soles holds the sole state of arm family f in group g at
	// g*op.soles + f (dispatch.go).
	soles []int32
	// consumed counts source rows read and srcNs times it; stages, what each
	// stage handed on.
	consumed int64
	srcNs    time.Duration
	stages   []stageRun
}

// addGroup extends the state arrays by the group the table just gave the
// next id.
func (p *foldPart) addGroup() error {
	op := p.op
	p.num, p.tag = append(grown(p.num, op.cells), op.init...), extended(p.tag, op.cells)
	p.soles = extended(p.soles, op.soles)
	for i := range op.slots {
		if op.slots[i].acc >= 0 {
			acc, err := newAccumulator(op.specs[i].call, p.tab.dict)
			if err != nil {
				return err
			}
			p.accs = append(grown(p.accs, op.accs), acc)
		}
	}
	return nil
}

// absorb merges the next-higher partition into p, an id remap: each group of
// from is looked up in p's table (groupTable.lookupFrom) — one load of p's
// directory at from's cell on the direct route, with the hash from already
// stored on the hash route; one new to p takes the next id — so ids stay in
// global first-appearance order — and from's state, a shared one merges
// state into state.
func (p *foldPart) absorb(from *foldPart) error {
	op := p.op
	nc, na, ns := op.cells, op.accs, op.soles
	for g := 0; g < from.tab.len(); g++ {
		id, fresh := p.tab.lookupFrom(&from.tab, g)
		if fresh {
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
	// What the partitions read adds up; when they read it does not: a
	// fan-out's time lives in its worker spans.
	p.consumed, p.srcNs = p.consumed+from.consumed, 0
	for i := range from.stages {
		p.stages[i].rows, p.stages[i].ns = p.stages[i].rows+from.stages[i].rows, 0
	}
	return nil
}

// foldWorker folds one partition: it is the last stage of its own run of the
// pipeline. gov shares the statement's counters but watches the fan-out's
// cancel context, so a sibling's failure stops this fold within one stride.
type foldWorker struct {
	op   *foldOp
	gov  *governor
	part *foldPart
	feed pipeRun
	// Scratch: per tuple of the batch, its group id and, family after family,
	// its entry; the batch vectors of the key components materialized; per
	// spec whose argument is evaluated ahead of the fold, its values (cut).
	gid  []int32
	ents [][]int32
	mat  []storage.Vector
	vals [][]value.Value
	// The batch's tuples sorted by entry (advanceArms): their ids in byEnt,
	// their group ids in entGid, and where each entry's run lies in runs.
	byEnt        tupleBatch
	entGid, runs []int32
	// The tuples a typed kernel reads whose argument is not NULL, and their
	// group ids (nonNull): taken at the first NULL-holding argument.
	keepIds, keepGid []int32
}

// run folds partition [lo, hi) of the op's source. Bound expression trees are
// immutable and stateless under Eval, so workers share them.
func (op *foldOp) run(gov *governor, lo, hi int) (*foldPart, error) {
	w := &foldWorker{op: op, gov: gov}
	w.part = &foldPart{op: op}
	w.part.tab = newGroupTable(op.keys.layout, &op.bounds, &w.part.dict)
	w.feed.init(op.pipe, gov, w, nil)
	defer w.feed.finish()
	// A fold with arm families also sorts by entry: one id vector a table,
	// beside the families' entry vectors.
	nf, nt := len(op.families), 0
	if nf > 0 {
		nt, w.entGid, w.runs = len(op.pipe.tabs), w.feed.buffer(), w.feed.buffer()
	}
	bufs := make([][]int32, nf+nt)
	for i := range bufs {
		bufs[i] = w.feed.buffer()
	}
	w.gid, w.ents, w.byEnt.ids = w.feed.buffer(), bufs[:nf], bufs[nf:]
	err := w.feed.run(lo, hi)
	w.part.consumed, w.part.srcNs, w.part.stages = w.feed.read, w.feed.srcNs, w.feed.st
	return w.part, err
}

// consume is the operator's one body. It resolves the batch's tuples, per arm
// family, to the entry each one's column values select (dispatch.go); it
// evaluates the arguments that can raise (cut); it resolves the tuples to
// group ids — creating, and charging, the groups that first appear among
// them; then it advances every spec outside a family by every tuple, and the
// arms of an entry by the tuples that selected it. What raises cuts the batch
// at the first tuple k that raises, as a row-at-a-time fold would meet it:
// the tuples before k are resolved, and so is k's own group when an argument
// raised — the reference makes it before it evaluates k's arguments, and it
// may trip MaxGroups first — and then the error ends the fold, so nothing is
// advanced. A partition that holds every cell its key can take, in a fold
// that may stop, ends its run: no tuple it has not read can add a group.
func (w *foldWorker) consume(b *tupleBatch) error {
	op, n := w.op, b.rows()
	for fi, f := range op.families {
		if err := w.resolve(&f.keys, &f.tab, b, n, w.ents[fi], false); err != nil {
			return err
		}
	}
	k, cut := w.cut(b, n)
	if err := cmp.Or(w.resolve(&op.keys, &w.part.tab, b, min(k+1, n), w.gid, true), cut); err != nil {
		return err
	}
	for i := range op.slots {
		if op.slots[i].family < 0 {
			if err := w.advance(i, b, w.gid, 0, n); err != nil {
				return err
			}
		}
	}
	if err := w.advanceArms(b, n); err != nil {
		return err
	}
	if op.full > 0 && w.part.tab.len() >= op.full {
		return errSaturated
	}
	return nil
}

// cut evaluates each argument that can raise (planSlot) at the tuples of b
// before n that reach its spec — all of them outside the families, an arm's
// those whose entry selects it — into the spec's values, which the boxed
// kernel reads in the order it meets those tuples. It returns n, or the first
// tuple at which an argument raises and that error: each argument tries only
// the tuples before the cut found so far, so the earliest tuple wins, and at
// one tuple the lowest-numbered spec, as the reference evaluates them.
func (w *foldWorker) cut(b *tupleBatch, n int) (int, error) {
	var first, err error
	for i := range w.op.slots {
		s := &w.op.slots[i]
		if s.in.e == nil {
			continue
		}
		if w.vals == nil {
			w.vals = make([][]value.Value, len(w.op.slots))
		}
		var ents []int32
		if s.family >= 0 {
			ents = w.ents[s.family]
		}
		w.vals[i], n, err = evalUntil(s.in.e, b, n, ents, s.entry, w.vals[i][:0])
		first = cmp.Or(err, first)
	}
	return n, first
}

// evalUntil appends to vals the value of e at each tuple of b before n — with
// ents set, at each whose entry there is entry — and returns them with n, or
// with the first tuple at which e raises and its error.
func evalUntil(e expr.Expr, b *tupleBatch, n int, ents []int32, entry int32, vals []value.Value) ([]value.Value, int, error) {
	vals = slices.Grow(vals, n)
	for k := 0; k < n; k++ {
		if ents != nil && ents[k] != entry {
			continue
		}
		v, err := e.Eval(b.row(k))
		if err != nil {
			return vals, k, err
		}
		vals = append(vals, v)
	}
	return vals, n, nil
}

// advanceArms advances the arms of each family by tuples [0, n) of batch b,
// whose entries are in w.ents and groups in w.gid, having shown each group's
// sole state its tuples' entries. A stable counting sort by entry lines each
// entry's tuples up in w.byEnt and w.entGid — those no arm matched first,
// where no arm reads them — and each arm of an entry then takes its run in
// one kernel call. Within a run the tuples keep their batch order, so every
// (group, arm) cell adds its values in the order a tuple-at-a-time fold does,
// and a REAL sum rounds alike.
func (w *foldWorker) advanceArms(b *tupleBatch, n int) error {
	op := w.op
	for fi, f := range op.families {
		ent := w.ents[fi][:n]
		for k := 0; k < n && op.soles > 0; k++ {
			seeSole(&w.part.soles[int(w.gid[k])*op.soles+fi], ent[k]+2)
		}
		// at[e+1] counts entry e's tuples (e >= -1), then says where its run
		// starts, then, each placed tuple moving it on, where the run ends.
		at := append(w.runs[:0], make([]int32, len(f.entries)+2)...)
		for _, e := range ent {
			at[e+2]++
		}
		for e := 2; e < len(at); e++ {
			at[e] += at[e-1]
		}
		for k, e := range ent {
			w.entGid[at[e+1]] = w.gid[k]
			for t, ids := range w.byEnt.ids {
				ids[at[e+1]] = b.ids[t][k]
			}
			at[e+1]++
		}
		for e, specs := range f.entries {
			for _, i := range specs {
				if err := w.advance(int(i), &w.byEnt, w.entGid, int(at[e]), int(at[e+1])); err != nil {
					return err
				}
			}
		}
		w.runs = at
	}
	return nil
}

// resolve writes to ids[:n] the id in t of each of the first n tuples' key.
// With groups set t is the partition's group table and a key's first
// appearance makes — and charges — its group; without, an absent key is id
// -1. Once the components not read in place are materialized, the batch is
// read one component at a time, through a loop typed for its vector
// (keys.go). On the direct route that pass leaves each tuple's cell in ids,
// until its id replaces it: a hit is one load, and a miss makes its group
// from the cell. A key outside the bounds is found nowhere, and inserting one
// is a bug (outOfBounds). A computed component that raises at a tuple
// cuts the batch there: the tuples before it are resolved, then its error
// returns.
func (w *foldWorker) resolve(kc *keyCols, t *groupTable, b *tupleBatch, n int, ids []int32, groups bool) error {
	if len(kc.cols) == 0 && t.len() > 0 {
		clear(ids[:n]) // the global aggregate's one group
		return nil
	}
	var cut error
	if kc.mat {
		if len(w.mat) < len(kc.cols) {
			w.mat = make([]storage.Vector, len(kc.cols))
		}
		n, cut = kc.materialize(b, n, w.mat)
	}
	if t.dir == nil {
		return cmp.Or(w.resolveHash(kc, t, b, n, ids, groups), cut)
	}
	cells := ids[:n]
	clear(cells)
	for c := range kc.cols {
		switch v, rows := kc.source(c, b, n, w.mat); v.Type {
		case storage.TypeString:
			readCells(t, c, v.Codes, v.Nulls, rows, cells)
		case storage.TypeBool:
			readBoolCells(t, c, v.Bools, v.Nulls, rows, cells)
		default:
			readCells(t, c, v.Ints, v.Nulls, rows, cells)
		}
	}
	dir := t.dir
	for k := 0; k < n; k++ {
		cell := uint(ids[k])
		if cell >= uint(len(dir)) {
			if groups {
				panic(outOfBounds)
			}
			ids[k] = -1
			continue
		}
		if id := dir[cell]; id != 0 || !groups {
			ids[k] = id - 1
			continue
		}
		ids[k] = t.addCell(int(cell))
		if err := w.charge(); err != nil {
			return err
		}
	}
	return cut
}

// hashChunk is how many keys resolveHash reads at a time, into a buffer in
// its frame.
const hashChunk = 128

// resolveHash is resolve on the hash route for the materialized tuples
// [0, n): a chunk of tuples at a time, the keys read a component at a time,
// then looked up tuple by tuple.
func (w *foldWorker) resolveHash(kc *keyCols, t *groupTable, b *tupleBatch, n int, ids []int32, groups bool) error {
	var buf [hashChunk * (maxIntKeys + 2)]int64
	keys, chunk := kc.chunk(buf[:])
	stride := kc.stride
	for base := 0; base < n; base += chunk {
		m := min(n-base, chunk)
		clear(keys[:m*stride])
		for c := range kc.cols {
			v, rows := kc.source(c, b, n, w.mat)
			kc.read(c, v, rows[base:base+m], keys, t.dict, groups)
		}
		for i := range m {
			key := keys[i*stride : (i+1)*stride]
			id, fresh := t.lookupHash(t.hash(key), key, groups)
			if ids[base+i] = id; fresh {
				if err := w.charge(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// charge accounts for a group the worker's partition just made. Group
// creation is the unbounded allocation. Groups shared across partitions are
// counted once per partition, which over-approximates — a budget, not an
// exact census.
func (w *foldWorker) charge() error {
	if w.part == nil {
		return nil // a join index's keys (buildIndex): not groups
	}
	if err := w.gov.addGroups(1); err != nil {
		return err
	}
	return w.part.addGroup()
}

// advance is the kernel call: it adds tuples [lo, hi) of the batch, whose
// groups are gid[lo:hi], to spec i. The typed kernels read a column vector
// by the tuples' ids and cannot fail. A count reads the bitmap alone; a sum or
// an extreme first drops the tuples whose cell is NULL (nonNull), and each
// function then runs a loop of its own, so no such loop tests a NULL bit, the
// function or — but for a REAL extreme — the cell's tag. The boxed kernel
// applies the accumulators' rules to any value.
func (w *foldWorker) advance(i int, b *tupleBatch, gid []int32, lo, hi int) error {
	s, n := &w.op.slots[i], w.op.cells
	if s.kernel == kernelBoxed {
		return w.advanceBoxed(i, b, gid[lo:hi], lo)
	}
	num, tag, ints, flts, cell := w.part.num, w.part.tag, s.ints, s.flts, s.cell
	var ids []int32 // count(*) reads none: a fold without FROM has no table
	if gid = gid[lo:hi]; s.kernel != kernelCount {
		ids, gid = w.nonNull(s.nulls, b.ids[s.t][lo:hi], gid)
	}
	switch {
	case s.kernel == kernelCount && len(s.nulls) > 0:
		for k, r := range b.ids[s.t][lo:hi] {
			if !s.nulls.Get(int(r)) {
				num[int(gid[k])*n+cell]++
			}
		}
	case s.kernel == kernelCount: // count(*), or a column without a NULL
		for _, g := range gid {
			num[int(g)*n+cell]++
		}
	// A new cell holds initCell's identity of its function, so the first
	// value needs no case of its own.
	case s.kernel == kernelInt && s.fn == expr.AggSum:
		for k, r := range ids {
			c := int(gid[k])*n + cell
			num[c], tag[c] = num[c]+ints[r], cellInt
		}
	case s.kernel == kernelInt && s.fn == expr.AggMin:
		for k, r := range ids {
			c := int(gid[k])*n + cell
			num[c], tag[c] = min(num[c], ints[r]), cellInt
		}
	case s.kernel == kernelInt:
		for k, r := range ids {
			c := int(gid[k])*n + cell
			num[c], tag[c] = max(num[c], ints[r]), cellInt
		}
	case s.fn == expr.AggSum:
		for k, r := range ids {
			c := int(gid[k])*n + cell
			num[c], tag[c] = floatCell(math.Float64frombits(uint64(num[c]))+flts[r]), cellFloat
		}
	// A REAL extreme keeps its first value — a NaN too, which no compare
	// replaces — so it tests the tag.
	case s.fn == expr.AggMin:
		for k, r := range ids {
			if c, v := int(gid[k])*n+cell, flts[r]; tag[c] == cellNone || v < math.Float64frombits(uint64(num[c])) {
				num[c], tag[c] = floatCell(v), cellFloat
			}
		}
	default:
		for k, r := range ids {
			if c, v := int(gid[k])*n+cell, flts[r]; tag[c] == cellNone || v > math.Float64frombits(uint64(num[c])) {
				num[c], tag[c] = floatCell(v), cellFloat
			}
		}
	}
	return nil
}

// initCell is the cell a new group starts spec s at: the identity of its
// function where a typed kernel reads it — -0.0 for a REAL sum, as -0.0 + x
// is x to the bit, the greatest and least INTEGER for an INTEGER min and max
// — and 0 otherwise. Its tag says cellNone until a value arrives.
func initCell(s *aggSlot) int64 {
	switch {
	case s.kernel == kernelFloat && s.fn == expr.AggSum:
		return floatCell(math.Copysign(0, -1))
	case s.kernel == kernelInt && s.fn == expr.AggMin:
		return math.MaxInt64
	case s.kernel == kernelInt && s.fn == expr.AggMax:
		return math.MinInt64
	}
	return 0
}

// nonNull returns the tuples among ids whose cell in nulls is not NULL, and
// their groups among gid: ids and gid themselves when nulls has no words, a
// copy in the worker's scratch otherwise.
func (w *foldWorker) nonNull(nulls storage.NullBitmap, ids, gid []int32) ([]int32, []int32) {
	if len(nulls) == 0 {
		return ids, gid
	}
	if w.keepIds == nil {
		w.keepIds, w.keepGid = w.feed.buffer(), w.feed.buffer()
	}
	n := 0
	for k, r := range ids {
		if !nulls.Get(int(r)) {
			w.keepIds[n], w.keepGid[n], n = r, gid[k], n+1
		}
	}
	return w.keepIds[:n], w.keepGid[:n]
}

// advanceBoxed is the boxed kernel: the tuples from batch position lo on,
// whose groups are gid, each boxed — or, for an argument evaluated ahead of
// the fold, the next of the values cut left; for a constant, its value — and
// added under the accumulators' rules.
func (w *foldWorker) advanceBoxed(i int, b *tupleBatch, gid []int32, lo int) error {
	s, num, tag, n := &w.op.slots[i], w.part.num, w.part.tag, w.op.cells
	for k := range gid {
		v := value.Null // an absent argument stays NULL
		switch {
		case s.in.get != nil:
			v = s.in.get(int(b.ids[s.in.t][lo+k]))
		case s.in.e != nil:
			v = w.vals[i][k]
		case s.in.c != nil:
			v = *s.in.c
		}
		var err error
		switch g := int(gid[k]); {
		case s.acc >= 0:
			err = w.part.accs[g*w.op.accs+s.acc].add(v)
		case s.fn == expr.AggSum:
			err = addSum(&num[g*n+s.cell], &tag[g*n+s.cell], v)
		case !v.IsNull():
			num[g*n+s.cell]++
		}
		if err != nil {
			return err
		}
	}
	return nil
}
