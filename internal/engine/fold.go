package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
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
// a window — goes through foldWorker.fold: resolve a batch of tuples to dense
// group ids in the partition's group table (grouptable.go), creating and
// charging a group where its key first appears, then advance each aggregate
// over the whole batch with one kernel call (foldWorker.advance). Aggregates
// over the disjoint CASE arms of a horizontal plan are the one refinement: a
// tuple reaches only the arms its values select (dispatch.go).
//
// State. A group is an id, not an object: its key sits in the group table's
// flat arrays, its aggregates in the partition's — one 8-byte cell and one
// tag byte per (group, sum / count / numeric min / max), strided by the
// fold's cell count, so a 50-arm Hpct fold grows the same two arrays a plain
// one does — and only avg, count(DISTINCT) and min / max over anything else
// keep an accumulator object per group (aggregate.go).
//
// Inputs. The fold is the last stage of its pipeline (columns.go): every
// worker runs the pipeline over its range of the source and folds the
// batches of id tuples it hands on. Keys and arguments are arbitrary bound
// expressions. A bare INTEGER or REAL column of a FROM table that no outer
// join NULL-extends is read straight off its vector by the tuple's id: a
// typed kernel loops it into the cells. Any other argument is boxed — a bare
// column through its typed storage.Table.CellGetter, anything computed against
// the batch positioned on the tuple — and added with sumAcc's rules. A fold in
// which something can raise — a key or argument that is computed, sum() over
// a VARCHAR or BOOLEAN — runs row-major, each tuple a batch of one: look up,
// charge, accumulate in spec order, so the first error and the MaxGroups trip
// point are the ones a row-at-a-time fold would raise.
//
// Parallelism. foldPartitions splits the source into contiguous ranges, folds
// each into a private foldPart, and merges them in ascending partition order:
// each group of the higher partition is looked up in the lower one's table —
// by its directory cell, or with its stored hash — a new group appends, a
// shared one adds cell to cell. A group's global first occurrence lies in its
// lowest-numbered partition and tuples keep their order within a partition,
// so that merge order reproduces the sequential first-appearance order
// exactly (a REAL sum's last bit may not: DESIGN.md, "Parallel partitioned
// aggregation").
// Nothing is copied to fan out: workers read disjoint ranges of the first
// table's immutable vectors, and a join's workers share its build side.

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

// foldInput is one key or aggregate-argument expression as the boxed route
// reads it: get boxes it for a row of table t, e evaluates against the batch
// positioned on the tuple. Both nil is an absent argument.
type foldInput struct {
	get func(row int) value.Value // bare column of table t, of type typ
	t   int
	typ storage.ColumnType
	e   expr.Expr // anything else
}

// keyCols is how a fold reads one key tuple off a tuple — its group key, or
// the columns an arm family tests. When every component is a bare INTEGER or
// VARCHAR column (≤ maxIntKeys) the tuple is read straight from the raw
// vectors — a string as its code — and NULL bitmaps (ints) into the group
// table's fixed-width keys; otherwise each is boxed (in) and encoded with
// value.AppendKey.
type keyCols struct {
	in   []foldInput
	ints []intCol
}

// intCol is column col of table t as fixed-width keys read it: an INTEGER
// column's values, or a VARCHAR column's codes in dict — one string, one
// code, so codes group as the strings do.
type intCol struct {
	vals   []int64
	codes  []int32
	dict   *storage.Dict
	nulls  storage.NullBitmap
	typ    storage.ColumnType
	t, col int
}

// at is the key component of row r, which is not NULL.
func (c *intCol) at(r int32) int64 {
	if c.codes != nil {
		return int64(c.codes[r])
	}
	return c.vals[r]
}

// readCells folds component c of each tuple's key — the value at its row,
// of an INTEGER column or a VARCHAR column's codes — into its direct-route
// cell. A value outside the bounds makes the cell t.cells, past every cell of
// the directory, and every later component keeps it there.
func readCells[T int32 | int64](t *groupTable, c int, vals []T, nulls storage.NullBitmap, rows []int32, cells []int32) {
	span, out := t.span[c], uint64(t.cells)
	for i, r := range rows {
		d := uint64(0)
		if !nulls.Get(int(r)) {
			var in bool
			if d, in = t.digit(c, int64(vals[r])); !in {
				d = out
			}
		}
		cells[i] = int32(min(uint64(cells[i])*span+d, out))
	}
}

// readKeys writes component c of each tuple's hash-route key, which with its
// NULL mask after it takes width+1 slots of keys: the value at its row, or 0
// and the mask bit for a NULL.
func readKeys[T int32 | int64](c, width int, vals []T, nulls storage.NullBitmap, rows []int32, keys []int64) {
	for i, r := range rows {
		if at := i * (width + 1); nulls.Get(int(r)) {
			keys[at+width] |= 1 << c
		} else {
			keys[at+c] = int64(vals[r])
		}
	}
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
	// soles is len(families), or 0 with no ELSE 0 to settle.
	cells, accs, soles int
	families           []*armFamily
	// rowMajor: something in the fold can raise, so tuples go through one at
	// a time and specs in ascending order (see the header comment).
	rowMajor bool
}

// planFold binds a fold to its pipeline.
func planFold(pipe *pipeline, keyExprs []expr.Expr, specs []aggSpec) *foldOp {
	op := &foldOp{pipe: pipe, specs: specs}
	op.keys = op.keyCols(keyExprs)
	op.planDirect()
	for i, arg := range op.planDispatch(pipe.sch) {
		op.planSlot(&op.slots[i], specs[i].call, arg)
	}
	return op
}

// planDirect puts a fixed-width key on the direct route when its columns'
// ranges (storage.Table.IntRange: every row of the table, so every tuple the
// fold can meet; a VARCHAR column's dictionary) make a directory of at most
// directCells cells for the fold's input.
func (op *foldOp) planDirect() {
	n := len(op.keys.ints)
	if n == 0 {
		return
	}
	var lo, hi [maxIntKeys]int64
	for c, col := range op.keys.ints {
		var ok bool
		if lo[c], hi[c], ok = op.pipe.tabs[col.t].IntRange(col.col); !ok {
			lo[c], hi[c] = 0, -1 // only NULLs
		}
	}
	op.bounds, _ = planBounds(lo[:n], hi[:n], directCells(op.pipe.count()))
}

// column reports the stored column e names, if it is a bare one of a table
// no outer join NULL-extends: its table among the pipeline's, and its
// position there.
func (op *foldOp) column(e expr.Expr) (t, col int, ok bool) {
	cr, isCol := e.(*expr.ColumnRef)
	if !isCol || op.pipe == nil || !cr.Bound() {
		return 0, 0, false
	}
	t, col, ok = locate(op.pipe.tabs, cr.Index)
	return t, col, ok && !op.pipe.nullable(t)
}

func (op *foldOp) input(e expr.Expr) foldInput {
	if t, col, ok := op.column(e); ok {
		tab := op.pipe.tabs[t]
		return foldInput{get: tab.CellGetter(col), t: t, typ: tab.Schema()[col].Type}
	}
	return foldInput{e: e}
}

// keyCols picks the route for a key tuple over exprs; a computed component
// makes the fold row-major.
func (op *foldOp) keyCols(exprs []expr.Expr) keyCols {
	var kc keyCols
	for _, e := range exprs {
		t, col, ok := op.column(e)
		var typ storage.ColumnType
		if ok {
			typ = op.pipe.tabs[t].Schema()[col].Type
		}
		if !ok || len(exprs) > maxIntKeys || typ != storage.TypeInt && typ != storage.TypeString {
			kc = keyCols{in: make([]foldInput, len(exprs))}
			for i, e := range exprs {
				kc.in[i] = op.input(e)
				op.rowMajor = op.rowMajor || kc.in[i].get == nil
			}
			return kc
		}
		c := op.pipe.tabs[t].Column(col)
		kc.ints = append(kc.ints, intCol{vals: c.Ints, codes: c.Codes, dict: c.Dict, nulls: c.Nulls, typ: typ, t: t, col: col})
	}
	return kc
}

// planSlot places one spec's state and picks its kernel: arg is what the
// spec accumulates — its argument, or its THEN under dispatch.
func (op *foldOp) planSlot(s *aggSlot, call *expr.AggCall, arg expr.Expr) {
	s.fn, s.cell, s.acc = call.Fn, -1, -1
	t, col, bare := op.column(arg)
	kind, known := value.KindNull, arg == nil // what arg evaluates to, when the plan can tell
	var c *storage.Vector
	if bare {
		c = op.pipe.tabs[t].Column(col)
		kind, known, s.t, s.nulls = c.Type.Kind(), true, t, c.Nulls
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
		s.kernel, s.ints = kernelInt, c.Ints
	case bare && kind == value.KindFloat:
		s.kernel, s.flts = kernelFloat, c.Flts
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
	op := planFold(pipe, keyExprs, specs)
	var ctx context.Context
	if ec.gov != nil {
		ctx = ec.gov.ctx
	}
	open := func() error { return pipe.open(ec.gov) }
	part, stage, err := foldPartitions(ctx, ec.span, ec.par, pipe.count(), open, func(ctx context.Context, lo, hi int) (*foldPart, error) {
		return op.run(ec.gov.withCtx(ctx), lo, hi)
	})
	if stage != nil {
		if err == nil {
			// The merged table's: a partition forced off the direct route
			// takes the merge with it. A global aggregate probes nothing.
			route := "none"
			if len(op.keys.in)+len(op.keys.ints) > 0 {
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
// They go a batch of ids at a time as columns: a fixed-width key component
// copied from the group table's integers and masks — a VARCHAR one as codes
// in its column's dictionary — a count or the sum or
// extreme of a bare numeric column from its cells, a byte-route key, an
// accumulator's result and any other cell boxed. A batch is about batchSize
// cells, so a wide fold's batches hold few groups: what the batch and a
// projector computing over it hold is bounded by the batch, not the width.
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
	cols := newVectors(k + width + len(op.specs))
	rows := max(1, batchSize/max(1, len(cols)))
	for base := 0; base < n; base += rows {
		if err := gov.check(); err != nil {
			return base, err
		}
		bn := min(rows, n-base)
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
			v, col, keys := cols[i], &op.keys.ints[i], part.tab.ints[base*width+i:]
			v.Resize(col.typ, bn)
			if col.typ == storage.TypeString {
				v.Dict = col.dict
				for g := range v.Codes {
					v.Codes[g] = int32(keys[g*width])
				}
			} else {
				for g := range v.Ints {
					v.Ints[g] = keys[g*width]
				}
			}
			for g, mask := range part.tab.masks[base : base+bn] {
				if mask>>i&1 != 0 {
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

// foldPart is one partition's fold state: its group table, the per-group
// state arrays the ids index, and what its run of the pipeline moved.
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
	// consumed counts source rows read and srcNs times it; stages, what each
	// stage handed on.
	consumed int64
	srcNs    time.Duration
	stages   []stageRun
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
// from is looked up in p's table — by its cell on the direct route, with the
// hash from already stored on the others; one new to p takes the next id — so
// ids stay in global first-appearance order — and from's state, a shared one
// merges state into state.
func (p *foldPart) absorb(from *foldPart) error {
	op := p.op
	k, nc, na, ns := len(op.keys.in), op.cells, op.accs, op.soles
	for g := 0; g < from.tab.len(); g++ {
		id, fresh := p.tab.lookupFrom(&from.tab, g)
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
	// Scratch: a key's boxed values and encoding; per tuple of the batch, its
	// group id and, family after family, its entry.
	keyVals []value.Value
	keyBuf  []byte
	gid     []int32
	ents    [][]int32
}

// run folds partition [lo, hi) of the op's source. Bound expression trees are
// immutable and stateless under Eval, so workers share them.
func (op *foldOp) run(gov *governor, lo, hi int) (*foldPart, error) {
	w := &foldWorker{op: op, gov: gov, keyVals: make([]value.Value, len(op.keys.in))}
	w.part = &foldPart{op: op, tab: newGroupTable(len(op.keys.ints), &op.bounds)}
	w.feed.init(op.pipe, gov, w, nil)
	defer w.feed.finish()
	w.gid, w.ents = w.feed.buffer(), make([][]int32, len(op.families))
	for fi := range w.ents {
		w.ents[fi] = w.feed.buffer()
	}
	err := w.feed.run(lo, hi)
	w.part.consumed, w.part.srcNs, w.part.stages = w.feed.read, w.feed.srcNs, w.feed.st
	return w.part, err
}

// consume folds a batch of tuples: all at once, or row-major one at a time
// with the batch positioned on it.
func (w *foldWorker) consume(b *tupleBatch) error {
	n := b.rows()
	if !w.op.rowMajor {
		return w.fold(b, 0, n)
	}
	for k := 0; k < n; k++ {
		if err := w.fold(b.row(k), k, k+1); err != nil {
			return err
		}
	}
	return nil
}

// fold is the operator's one body. It resolves tuples [lo, hi) of the batch
// to group ids — creating, and charging, the groups that first appear among
// them — and, per arm family, to the entry each tuple's column values select,
// which it shows the group's sole state (dispatch.go); then it advances every
// spec outside a family by every tuple, and the arms of an entry by the
// tuples that selected it.
func (w *foldWorker) fold(b *tupleBatch, lo, hi int) error {
	op := w.op
	if err := w.resolve(&op.keys, &w.part.tab, b, lo, hi, w.gid, true); err != nil {
		return err
	}
	for fi, f := range op.families {
		ent := w.ents[fi]
		if err := w.resolve(&f.keys, &f.tab, b, lo, hi, ent, false); err != nil {
			return err
		}
		for k := lo; k < hi && op.soles > 0; k++ {
			seeSole(&w.part.soles[int(w.gid[k])*op.soles+fi], ent[k]+2)
		}
	}
	for i := range op.slots {
		// Row-major, the batch is one tuple and the specs it reaches advance
		// in ascending order, so the first error it raises is the one the
		// arm-by-arm reference raises.
		if s := &op.slots[i]; s.family < 0 || op.rowMajor && w.ents[s.family][lo] == s.entry {
			if err := w.advance(i, b, lo, hi); err != nil {
				return err
			}
		}
	}
	// Nothing can raise in a batch of many tuples, so order is free: the arms
	// advance behind the specs every tuple reaches, each tuple's in turn.
	for fi := 0; fi < len(op.families) && !op.rowMajor; fi++ {
		for k, e := range w.ents[fi][lo:hi] {
			if e < 0 {
				continue
			}
			for _, i := range op.families[fi].entries[e] {
				if err := w.advance(int(i), b, lo+k, lo+k+1); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// resolve writes to ids[lo:hi] the id in t of each tuple's key. With groups
// set t is the partition's group table and a key's first appearance makes —
// and charges — its group; without, an absent key is id -1.
func (w *foldWorker) resolve(kc *keyCols, t *groupTable, b *tupleBatch, lo, hi int, ids []int32, groups bool) error {
	if t.width+len(kc.in) == 0 && t.len() > 0 {
		clear(ids[lo:hi]) // the global aggregate's one group
		return nil
	}
	if t.width > 0 {
		return w.resolveFixed(kc, t, b, lo, hi, ids, groups)
	}
	for k := lo; k < hi; k++ {
		buf := w.keyBuf[:0]
		for i := range kc.in {
			var v value.Value
			if in := &kc.in[i]; in.get != nil {
				v = in.get(int(b.ids[in.t][k]))
			} else if x, err := in.e.Eval(b.row(k)); err != nil {
				return err
			} else {
				v = x
			}
			if buf = value.AppendKey(buf, v); groups {
				w.keyVals[i] = v
			}
		}
		w.keyBuf = buf
		id, fresh := t.lookupBytes(t.hashBytes(buf), buf, groups)
		if ids[k] = id; fresh {
			if err := w.charge(); err != nil {
				return err
			}
		}
	}
	return nil
}

// resolveFixed is resolve for a fixed-width key. The batch is read one
// component at a time, through a loop typed for its column — an INTEGER
// column's values or a VARCHAR column's codes. On the direct route that pass
// leaves each tuple's cell in ids, until its id replaces it: a hit is one
// load, and a miss — a new group, or a key out of bounds — reads its key off
// the columns (intCol.at) for lookupKey.
func (w *foldWorker) resolveFixed(kc *keyCols, t *groupTable, b *tupleBatch, lo, hi int, ids []int32, groups bool) error {
	if t.dir == nil {
		return w.resolveHash(kc, t, b, lo, hi, ids, groups)
	}
	cells := ids[lo:hi]
	clear(cells)
	for c := range kc.ints {
		if col, rows := &kc.ints[c], b.ids[kc.ints[c].t][lo:hi]; col.codes != nil {
			readCells(t, c, col.codes, col.nulls, rows, cells)
		} else {
			readCells(t, c, col.vals, col.nulls, rows, cells)
		}
	}
	var tuple [maxIntKeys]int64
	for k := lo; k < hi; k++ {
		// A move to the hash route — an out-of-bounds key inserted — takes
		// the rest of the batch with it.
		if cell := ids[k]; t.dir != nil && int(cell) < t.cells {
			if id := t.dir[cell]; id != 0 || !groups {
				ids[k] = id - 1
				continue
			}
		}
		key, mask := tuple[:t.width], uint8(0)
		for c := range kc.ints {
			if col, r := &kc.ints[c], b.ids[kc.ints[c].t][k]; col.nulls.Get(int(r)) {
				mask |= 1 << c
				key[c] = 0
			} else {
				key[c] = col.at(r)
			}
		}
		id, fresh := t.lookupKey(key, mask, groups)
		if ids[k] = id; fresh {
			if err := w.charge(); err != nil {
				return err
			}
		}
	}
	return nil
}

// hashChunk is how many tuples resolveHash reads keys for at a time, into a
// buffer in its frame.
const hashChunk = 128

// resolveHash is resolveFixed on the hash route: hashChunk tuples at a time,
// the keys and NULL masks read a component at a time, then looked up tuple by
// tuple.
func (w *foldWorker) resolveHash(kc *keyCols, t *groupTable, b *tupleBatch, lo, hi int, ids []int32, groups bool) error {
	var buf [hashChunk * (maxIntKeys + 1)]int64
	width := t.width
	for ; lo < hi; lo += hashChunk {
		n := min(hi-lo, hashChunk)
		keys := buf[:n*(width+1)]
		clear(keys)
		for c := range kc.ints {
			if col, rows := &kc.ints[c], b.ids[kc.ints[c].t][lo:lo+n]; col.codes != nil {
				readKeys(c, width, col.codes, col.nulls, rows, keys)
			} else {
				readKeys(c, width, col.vals, col.nulls, rows, keys)
			}
		}
		for i := range n {
			key := keys[i*(width+1) : (i+1)*(width+1)]
			id, fresh := t.lookupKey(key[:width], uint8(key[width]), groups)
			if ids[lo+i] = id; fresh {
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
	if err := w.gov.addGroups(1); err != nil {
		return err
	}
	return w.part.addGroup(w.keyVals)
}

// advance is the kernel call: it adds tuples [lo, hi) of the batch, whose
// groups are w.gid[lo:hi], to spec i. The typed kernels read a column vector
// and its NULL bitmap by the tuples' ids and cannot fail; the boxed one
// applies the accumulators' rules to any value.
func (w *foldWorker) advance(i int, b *tupleBatch, lo, hi int) error {
	s, n := &w.op.slots[i], w.op.cells
	num, tag, gid := w.part.num, w.part.tag, w.gid[lo:hi]
	sum, least := s.fn == expr.AggSum, s.fn == expr.AggMin
	switch s.kernel {
	case kernelCount:
		if len(s.nulls) == 0 { // count(*), or a column without a NULL
			for _, g := range gid {
				num[int(g)*n+s.cell]++
			}
			break
		}
		for k, r := range b.ids[s.t][lo:hi] {
			if !s.nulls.Get(int(r)) {
				num[int(gid[k])*n+s.cell]++
			}
		}
	case kernelInt:
		for k, r := range b.ids[s.t][lo:hi] {
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
		for k, r := range b.ids[s.t][lo:hi] {
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
		for k := range gid {
			v, err := value.Null, error(nil) // an absent argument stays NULL
			if s.in.get != nil {
				v = s.in.get(int(b.ids[s.in.t][lo+k]))
			} else if s.in.e != nil {
				v, err = s.in.e.Eval(b)
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
