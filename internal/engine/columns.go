package engine

import (
	"sync"
	"time"

	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

// The batch pipeline: the one way a SELECT reads its FROM. A FROM compiles to
// a source and stages that move batchSize id tuples at a time. The source is
// a range of the first table's row ids (or a stretch of the sorted ones), the
// one tuple of no table a FROM-less select reads, or tuples a window
// collected. A filter narrows a batch — through the selection kernels where
// splitFilter admits it, tuple by tuple otherwise — a hash join looks the
// batch's keys up in its build side's index, and a nested loop pairs each
// tuple with every row of its stored right table; a join hands on one id
// vector per FROM table, -1 for the NULL extension of an outer join's
// unmatched row. Three consumers take the tuples: the projector's column ops
// gather, divide or evaluate them into the sink's batch (a plain select), the
// fold worker folds them (fold.go), and a window collects them (select.go).
// Nothing is boxed but the cells an expression reads.
//
// Errors keep the order of a row-at-a-time evaluation, which finishes a row
// before it starts the next: a stage that raises at some tuple hands the
// tuples before it on, and its error waits for whatever those raise
// downstream. That evaluation itself — the plan's nodes pulled one boxed row
// at a time — is the reference the pipeline is proven against; it lives in
// the package's tests (oracle_test.go).

// batchPool recycles the batch-sized id vectors tuples and group ids move
// in, as *[batchSize]int32.
var batchPool = sync.Pool{New: func() any { return new([batchSize]int32) }}

// pipeline is a compiled FROM, shared read-only by the runs over it.
type pipeline struct {
	root   planNode   // the plan, for tracing; nil over collected tuples
	sch    relSchema  // the joined schema: the columns of tabs, in order
	scan   *tableScan // the first FROM table's scan; nil without one
	leaf   *opStats   // the source's, when the statement is traced in full
	held   *tupleSet  // a window's collected tuples, read in place of a scan
	stages []stage    // scan side first
	tabs   []*storage.Table
	outer  []bool // per table, whether an outer join may NULL-extend it; nil for none
	// Room for the usual plan — a filter or a join over two tables — and for
	// drain's run, without an allocation.
	inlStages [2]stage
	inlTabs   [2]*storage.Table
	run       pipeRun
}

// stage is one operator above the source.
type stage struct {
	filter *filterIter
	join   *hashJoin
	loop   *nestedLoopJoin
	tables int // FROM tables in the tuples the stage reads
}

// tupleSet is a collected relation of id tuples: n row ids per table.
type tupleSet struct {
	ids [][]int32
	n   int
}

// newPipeline compiles the plan in.
func newPipeline(in planNode) *pipeline {
	p := &pipeline{root: in, sch: in.schema()}
	p.stages, p.tabs = p.inlStages[:0], p.inlTabs[:0]
	p.compile(in)
	return p
}

// compile appends the stages of the plan n, scan side first.
func (p *pipeline) compile(n planNode) {
	var st stage
	var tab *storage.Table // what a join brings in
	var outer bool
	switch n := n.(type) {
	case *tableScan:
		p.scan, p.leaf, p.tabs = n, n.stats, append(p.tabs, n.tab)
		return
	case *valuesNode:
		p.leaf = n.stats
		return
	case *filterIter:
		p.compile(n.child)
		st.filter = n
	case *hashJoin:
		p.compile(n.left)
		st.join, tab, outer = n, n.build.tab, n.outer
	case *nestedLoopJoin:
		p.compile(n.left)
		st.loop, tab, outer = n, n.right.tab, n.outer
	}
	st.tables = len(p.tabs)
	p.stages = append(p.stages, st)
	if outer {
		p.outer = append(p.outer, make([]bool, st.tables+1-len(p.outer))...)
		p.outer[st.tables] = true
	}
	if tab != nil {
		p.tabs = append(p.tabs, tab)
	}
}

// locate maps column i of the schema joining tabs to its table and its
// position there; ok is false past the last column.
func locate(tabs []*storage.Table, i int) (t, col int, ok bool) {
	for t, tab := range tabs {
		if i < tab.NumCols() {
			return t, i, true
		}
		i -= tab.NumCols()
	}
	return 0, 0, false
}

// nullable reports whether an outer join may NULL-extend table t: id -1.
func (p *pipeline) nullable(t int) bool { return t < len(p.outer) && p.outer[t] }

// count is how many source rows a run over the whole source reads.
func (p *pipeline) count() int {
	switch {
	case p.held != nil:
		return p.held.n
	case p.scan != nil:
		return p.scan.count()
	}
	return 1 // the FROM-less select's one tuple
}

// open runs what must happen once before any tuple flows, outermost join
// first, as a pulled plan's first row would: each hash join's build and each
// nested loop's read of its right table.
func (p *pipeline) open(gov *governor) error {
	for i := len(p.stages) - 1; i >= 0; i-- {
		var err error
		switch st := &p.stages[i]; {
		case st.join != nil:
			if err = st.join.build.ensure(gov); err == nil {
				st.join.build.probeKeys(p.tabs[:st.tables], p.nullable)
			}
		case st.loop != nil:
			err = st.loop.open(gov)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// drain runs the whole pipeline once into sink — gathers are the projector's
// column ops, nil for any other sink — clocking each operator when the
// statement is traced, and counts the rows it scanned.
func (p *pipeline) drain(gov *governor, sink tupleSink, gathers []colOp) error {
	if err := p.open(gov); err != nil {
		return err
	}
	r := &p.run
	r.init(p, gov, sink, gathers)
	r.timed = p.leaf != nil
	defer r.finish()
	if err := r.run(0, p.count()); err != nil {
		return err
	}
	if p.scan != nil && !p.scan.counted {
		mRowsScanned.Add(r.read)
	}
	return nil
}

// collect drains the pipeline into a tupleSet — a window's input, held as ids
// — charging each tuple against MaxRows and its ids against MaxBytes.
func (p *pipeline) collect(gov *governor) (*tupleSet, error) {
	set := &tupleSet{ids: make([][]int32, len(p.tabs))}
	charge := rowCharge{gov: gov}
	err := p.drain(gov, sinkFunc(func(b *tupleBatch) error {
		n := b.rows()
		for t, ids := range set.ids {
			set.ids[t] = append(grown(ids, n), b.ids[t]...)
		}
		set.n += n
		return charge.addRows(n, int64(4*len(set.ids)*n))
	}), nil)
	if err == nil {
		err = charge.settle()
	}
	return set, err
}

// record fills the opStats a traced statement allocated: read source rows in
// srcNs, and each stage's tuples handed on and own time, summed upward: each
// operator's time is inclusive of the operators below it, as EXPLAIN ANALYZE
// reads them, and a join's of what open did for it.
func (p *pipeline) record(read int64, srcNs time.Duration, st []stageRun) {
	sum := srcNs
	if p.leaf != nil {
		*p.leaf = opStats{ns: int64(sum), rows: read}
	}
	for i, stage := range p.stages {
		sum += st[i].ns
		var stats *opStats
		switch {
		case stage.join != nil:
			stats, sum = stage.join.stats, sum+time.Duration(stage.join.build.buildNs)
		case stage.loop != nil:
			stats, sum = stage.loop.stats, sum+time.Duration(stage.loop.openNs)
		default:
			stats = stage.filter.stats
		}
		if stats != nil {
			*stats = opStats{ns: int64(sum), rows: st[i].rows}
		}
	}
}

// tupleSink is a pipeline's consumer: the projector, a fold worker, or what a
// window does with its input.
type tupleSink interface {
	consume(b *tupleBatch) error
}

// sinkFunc is a function as a tupleSink.
type sinkFunc func(b *tupleBatch) error

func (f sinkFunc) consume(b *tupleBatch) error { return f(b) }

// pipeRun is one pass of tuples through a pipeline into a sink: the
// statement's, or a fold worker's over its range of the source. It owns the
// batch, each stage's buffers and what the run moved.
type pipeRun struct {
	p     *pipeline
	src   tupleBatch
	st    []stageRun
	sink  tupleSink
	gov   *governor
	timed bool
	read  int64         // source rows read
	srcNs time.Duration // timed: the source's own time
	pairs int           // nested-loop pairs tested, for the governor
	sel   []int32       // the scan's batch of row ids
	bufs  []*[batchSize]int32
	inl   [4]*[batchSize]int32
	one   [1][]int32
	inlSt [1]stageRun
}

// stageRun is one stage's state in a run.
type stageRun struct {
	kernel  expr.Expr     // filter: the conjuncts the selection kernels take (splitFilter)
	rest    expr.Expr     // filter: the rest, evaluated tuple by tuple
	pos     []int32       // filter: the positions rest keeps
	in, out [][]int32     // join: the probe batch's id vectors, and the joined ones
	rid     []int32       // per tuple: a nested loop's right row under test, a hash join's index id
	probe   *foldWorker   // hash join: the scratch its lookups read keys in
	rows    int64         // tuples handed on
	ns      time.Duration // timed: the stage's own time
}

// init readies the run over p into sink; gathers are the projector's column
// ops, whose input columns the batch gathers as vectors.
func (r *pipeRun) init(p *pipeline, gov *governor, sink tupleSink, gathers []colOp) {
	r.p, r.gov, r.sink, r.bufs = p, gov, sink, r.inl[:0]
	r.src.init(p.tabs, gathers)
	if len(p.tabs) == 1 {
		r.src.ids = r.one[:]
	} else {
		r.src.ids = make([][]int32, len(p.tabs))
	}
	r.st = r.inlSt[:0]
	r.st = append(r.st, make([]stageRun, len(p.stages))...)
	for i := range p.stages {
		st, s := &p.stages[i], &r.st[i]
		switch {
		case st.join != nil || st.loop != nil:
			vecs := make([][]int32, 2*st.tables+1)
			s.in, s.out = vecs[:st.tables:st.tables], vecs[st.tables:]
			for t := range s.out {
				s.out[t] = r.buffer()[:0]
			}
			if s.rid = r.buffer(); st.join != nil {
				s.probe = &foldWorker{}
			}
		case st.tables == 1:
			s.kernel, s.rest = splitFilter(p.tabs[0], st.filter.pred)
		default:
			s.rest = st.filter.pred
		}
		if s.rest != nil {
			s.pos = r.buffer()
		}
	}
	if p.scan != nil {
		r.sel = r.buffer()
	}
}

// buffer hands out a pooled batch-sized vector the run returns at finish.
func (r *pipeRun) buffer() []int32 {
	b := batchPool.Get().(*[batchSize]int32)
	r.bufs = append(r.bufs, b)
	return b[:]
}

// finish returns the run's pooled vectors and, for a timed run, records what
// each operator did.
func (r *pipeRun) finish() {
	for _, b := range r.bufs {
		batchPool.Put(b)
	}
	if r.timed {
		r.p.record(r.read, r.srcNs, r.st)
	}
}

// run drives source rows [lo, hi) through the stages into the sink.
func (r *pipeRun) run(lo, hi int) error {
	p := r.p
	for base := lo; base < hi; base += batchSize {
		bn := min(batchSize, hi-base)
		t0 := time.Now()
		switch {
		case p.held != nil:
			for t := range r.src.ids {
				r.src.ids[t] = p.held.ids[t][base : base+bn]
			}
		case p.scan == nil:
		case p.scan.order != nil:
			r.src.ids[0] = append(r.sel[:0], p.scan.order[base:base+bn]...)
		default:
			r.src.ids[0] = rowRange(r.sel, base, bn)
		}
		r.src.n = bn
		r.srcNs += time.Since(t0)
		err := r.stage(0)
		if r.read += int64(bn); err == nil && p.scan != nil {
			err = r.gov.addScanned(int64(bn))
		} else if err == nil {
			err = r.gov.check()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// stage runs stage i and everything above it over the batch in r.src; past
// the last stage the sink takes it.
func (r *pipeRun) stage(i int) error {
	if i == len(r.st) {
		for c := range r.src.cols {
			r.src.cols[c].have = false // a new batch: nothing gathered yet
		}
		return r.sink.consume(&r.src)
	}
	st, s := &r.p.stages[i], &r.st[i]
	switch {
	case st.join != nil:
		return r.joinStage(i, st, s)
	case st.loop != nil:
		return r.loopStage(i, st, s)
	}
	t0 := time.Now()
	var pending error
	if s.kernel != nil && r.src.rows() > 0 {
		r.src.ids[0] = applySel(r.p.tabs[0], s.kernel, r.src.ids[0])
	}
	if s.rest != nil {
		pos := s.pos[:0]
		for k, n := 0, r.src.rows(); k < n && pending == nil; k++ {
			v, err := s.rest.Eval(r.src.row(k))
			if pending = err; err == nil && v.Truthy() {
				pos = append(pos, int32(k))
			}
		}
		r.src.keep(pos, st.tables)
	}
	s.rows += int64(r.src.rows())
	s.ns += time.Since(t0)
	if err := r.stage(i + 1); err != nil {
		return err
	}
	return pending
}

// joinStage looks the batch's keys up in the build side's index and pairs
// each tuple with its matches, in row order, handing the joined tuples on
// batchSize at a time, so a wide fan-out is governed — and charged — as it is
// produced, not after.
func (r *pipeRun) joinStage(i int, st *stage, s *stageRun) error {
	t0 := time.Now()
	copy(s.in, r.src.ids)
	b, ids := st.join.build, s.rid[:len(s.in[0])]
	if err := b.lookup(s.probe, &r.src, ids); err != nil {
		return err
	}
	for k, id := range ids {
		matches := b.ix.matches(id)
		if len(matches) == 0 && st.join.outer {
			matches = unmatched
		}
		for _, m := range matches {
			if err := r.pair(i, st, s, k, m, &t0); err != nil {
				return err
			}
		}
	}
	return r.flush(i, s, &t0)
}

// unmatched is the match list of an outer join's probe tuple without a match.
var unmatched = []int32{-1}

// loopStage pairs each tuple of the batch with every row of the loop's right
// table, in order, and hands on the pairs the predicate admits — and, under
// LEFT OUTER, a tuple that met none with -1. The inner loop polls the
// governor every govStride pairs: one tuple can pair with a whole table.
func (r *pipeRun) loopStage(i int, st *stage, s *stageRun) error {
	t0 := time.Now()
	j, n := st.loop, len(r.src.ids[0])
	copy(s.in, r.src.ids)
	rows := j.right.count()
	var pending error
	for k := 0; k < n && pending == nil; k++ {
		seen := false
		for right := 0; right < rows && pending == nil; right++ {
			if r.pairs++; r.pairs%govStride == 0 {
				if pending = r.gov.check(); pending != nil {
					break
				}
			}
			if j.pred != nil {
				// The predicate reads the pair through the batch: the right
				// table's ids are the row under test.
				r.src.ids[st.tables], s.rid[k] = s.rid[:n], int32(right)
				v, err := j.pred.Eval(r.src.row(k))
				if pending = err; err != nil || !v.Truthy() {
					continue
				}
			}
			seen = true
			pending = r.pair(i, st, s, k, int32(right), &t0)
		}
		if pending == nil && j.outer && !seen {
			pending = r.pair(i, st, s, k, -1, &t0)
		}
	}
	if err := r.flush(i, s, &t0); err != nil {
		return err
	}
	return pending
}

// pair appends tuple k of the probe batch joined to right row id, handing the
// joined tuples on when they fill a batch.
func (r *pipeRun) pair(i int, st *stage, s *stageRun, k int, id int32, t0 *time.Time) error {
	for t, ids := range s.in {
		s.out[t] = append(s.out[t], ids[k])
	}
	s.out[st.tables] = append(s.out[st.tables], id)
	if len(s.out[0]) < batchSize {
		return nil
	}
	return r.flush(i, s, t0)
}

// flush hands the joined tuples in s.out to the stages above stage i, then
// puts the probe batch back.
func (r *pipeRun) flush(i int, s *stageRun, t0 *time.Time) error {
	if len(s.out[0]) == 0 {
		s.ns += time.Since(*t0)
		return nil
	}
	copy(r.src.ids, s.out)
	s.rows += int64(len(s.out[0]))
	s.ns += time.Since(*t0)
	err := r.stage(i + 1)
	copy(r.src.ids, s.in)
	for t := range s.out {
		s.out[t] = s.out[t][:0]
	}
	*t0 = time.Now()
	return err
}

// tupleBatch is a batch of id tuples as stages and consumers see it: per FROM
// table, the batch's row ids, -1 for the NULL extension of an outer join. As
// a row view (row) it boxes only the cells an expression reads, each through
// its column's typed getter; the projector gathers whole columns instead
// (vector). Columns past the tables' are ext's vectors: a window's partition
// results, or — with no table at all — a fold's batch of groups.
type tupleBatch struct {
	tabs []*storage.Table
	ids  [][]int32
	n    int // tuples when there is no table to count them
	k    int
	cols []tupleCol // per column of the joined schema, built on first use
	ext  []*storage.Vector
}

type tupleCol struct {
	tab, col int
	vec      *storage.Vector       // the projector's gather of the column; nil for none
	have     bool                  // vec holds the current batch
	get      func(int) value.Value // built on first use
}

// init sets the batch up over tabs, with a vector for each column the
// projector's ops read as one.
func (b *tupleBatch) init(tabs []*storage.Table, ops []colOp) {
	b.tabs = tabs
	reads := 0 // a gather reads one column as a vector, a division two
	for _, op := range ops {
		reads += int(op.kind)
	}
	if reads == 0 {
		return
	}
	vecs := make([]storage.Vector, 0, reads) // never regrown: the columns point into it
	for _, op := range ops {
		read := [2]int{op.a, op.b}
		for _, i := range read[:op.kind] {
			if c := b.column(i); c != nil && c.vec == nil {
				vecs = append(vecs, storage.Vector{})
				c.vec = &vecs[len(vecs)-1]
			}
		}
	}
}

// column returns the state of column i, building the table of them first;
// nil for a column of ext.
func (b *tupleBatch) column(i int) *tupleCol {
	if b.cols == nil {
		for t, tab := range b.tabs {
			for c := 0; c < tab.NumCols(); c++ {
				b.cols = append(grown(b.cols, 1), tupleCol{tab: t, col: c})
			}
		}
	}
	if i >= len(b.cols) {
		return nil
	}
	return &b.cols[i]
}

// rows is the number of tuples in the batch.
func (b *tupleBatch) rows() int {
	if len(b.ids) == 0 {
		return b.n
	}
	return len(b.ids[0])
}

// vector returns column i of the batch, gathered once per batch.
func (b *tupleBatch) vector(i int) *storage.Vector {
	c := b.column(i)
	if c == nil {
		return b.ext[i-len(b.cols)]
	}
	if !c.have {
		b.tabs[c.tab].Gather(c.col, b.ids[c.tab], c.vec)
		c.have = true
	}
	return c.vec
}

// row positions the view on tuple k.
func (b *tupleBatch) row(k int) *tupleBatch { b.k = k; return b }

// ColumnValue boxes column i of the current tuple.
func (b *tupleBatch) ColumnValue(i int) value.Value {
	c := b.column(i)
	if c == nil {
		return b.ext[i-len(b.cols)].Value(b.k)
	}
	id := b.ids[c.tab][b.k]
	if id < 0 {
		return value.Null
	}
	if c.get == nil {
		c.get = b.tabs[c.tab].CellGetter(c.col)
	}
	return c.get(int(id))
}

// keep narrows the id vectors of the first tables tables to the positions pos.
func (b *tupleBatch) keep(pos []int32, tables int) {
	for t := 0; t < tables; t++ {
		ids := b.ids[t]
		for i, p := range pos {
			ids[i] = ids[p]
		}
		b.ids[t] = ids[:len(pos)]
	}
	b.n = len(pos)
}

// The selection kernels: the engine's one vectorized filter, the pipeline's
// filter stage over the first FROM table.

// splitFilter splits a bound predicate over one stored table into the leading
// conjuncts the selection kernels take and the rest, evaluated tuple by
// tuple; either may be nil. A conjunct is taken only if it is error-free and
// two-valued on this table, or the whole predicate is error-free: AND skips
// its right side only behind a definitely false left, so a conjunct that can
// raise must still see the rows an earlier one left NULL.
func splitFilter(tab *storage.Table, pred expr.Expr) (kernel, rest expr.Expr) {
	if expr.ErrFree(pred) {
		return pred, nil
	}
	conjuncts := splitConjuncts(pred)
	lead := 0
	for lead < len(conjuncts) && expr.ErrFree(conjuncts[lead]) && twoValued(tab, conjuncts[lead]) {
		lead++
	}
	return andAll(conjuncts[:lead]), andAll(conjuncts[lead:])
}

// twoValued reports whether the error-free predicate p is never NULL on tab:
// its equality tests are against non-NULL constants, on columns holding none.
func twoValued(tab *storage.Table, p expr.Expr) bool {
	b, ok := p.(*expr.BinaryOp)
	if !ok {
		return true // IS [NOT] NULL
	}
	if col, val, ok := b.ColumnConst(); ok {
		return !val.IsNull() && len(tab.Column(col).Nulls) == 0
	}
	return twoValued(tab, b.Left) && twoValued(tab, b.Right)
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
		out, nulls := sel[:0], tab.Column(n.Operand.(*expr.ColumnRef).Index).Nulls
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
// the NULL bitmap cover same-kind int/string/bool compares — a string
// constant as its code, looked up once: one the dictionary lacks selects
// nothing, without a scan; everything else (floats, cross-kind) goes through
// per-row SQLEqual, which is still error-free and bit-identical to the
// prepared comparison's Eval.
func eqSel(tab *storage.Table, col int, val value.Value, sel []int32) []int32 {
	c := tab.Column(col)
	switch k := val.Kind(); {
	case k == value.KindNull:
		return sel[:0] // NULL compares to nothing; never truthy
	case k != c.Type.Kind():
	case k == value.KindInt:
		return eqKernel(c.Ints, c.Nulls, val.Int(), sel)
	case k == value.KindString:
		code, ok := c.Dict.Code(val.Str())
		if !ok {
			return sel[:0]
		}
		return eqKernel(c.Codes, c.Nulls, code, sel)
	case k == value.KindBool:
		return eqKernel(c.Bools, c.Nulls, val.Bool(), sel)
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
