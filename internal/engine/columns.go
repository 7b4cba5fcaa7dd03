package engine

import (
	"time"

	"repro/internal/batch"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

// Column moves. A plain SELECT — no window, aggregate or DISTINCT — whose FROM
// is a stored table, hash-joined or not to further stored tables, does not
// pull boxed rows through its iterators: it runs batch.Size row ids at a
// time. The scan is a range of ids (or a stretch of the sorted ones), a filter
// narrows them — through the selection kernels where a tableFilter admits
// them, over a positioned view otherwise — a hash join probes the one
// buildSide with each id tuple and emits one id vector per FROM table (-1 for
// the NULL extension of an outer join's unmatched row), and the projector's
// column ops gather, divide or evaluate straight off the tables' vectors
// into the sink's batch. Nothing is boxed but the cells an expression reads.
//
// Errors keep the order of the row-at-a-time path, which finishes a row
// before it starts the next: a stage that raises at some row hands the rows
// before it on, and its error waits for whatever those raise downstream.
//
// The iterators the plan was built from (tableScan.next, filterIter,
// hashJoin.step, projector.push) remain the reference this is proven against
// — SetBatch(false) and a core.batch fault select them — and the only path for
// inputs that are not stored tables. A traced statement's operators are
// clocked once per batch here, not per row.

// tupleBatch is a batch of id tuples over the FROM tables as the projector's
// source: a column of the joined schema is a column of one of the tables,
// gathered by that table's id vector on first use; as a row view it boxes
// only the cells asked of it, each through its column's typed getter.
type tupleBatch struct {
	tabs []*storage.Table
	ids  [][]int32 // per table, the current batch's row ids
	cols []tupleCol
	k    int
}

// init sets the batch up over tabs, with a vector for each column the ops
// gather.
func (b *tupleBatch) init(tabs []*storage.Table, ops []colOp) {
	b.tabs, b.ids = tabs, make([][]int32, len(tabs))
	w := 0
	for _, tab := range tabs {
		w += tab.NumCols()
	}
	b.cols = make([]tupleCol, 0, w)
	for t, tab := range tabs {
		for c := 0; c < tab.NumCols(); c++ {
			b.cols = append(b.cols, tupleCol{tab: t, col: c})
		}
	}
	reads := 0 // a gather reads one column as a vector, a division two
	for _, op := range ops {
		reads += int(op.kind)
	}
	vecs := make([]storage.Vector, 0, reads) // never regrown: the columns point into it
	for _, op := range ops {
		read := [2]int{op.a, op.b}
		for _, i := range read[:op.kind] {
			if c := &b.cols[i]; c.vec == nil {
				vecs = append(vecs, storage.Vector{})
				c.vec = &vecs[len(vecs)-1]
			}
		}
	}
}

type tupleCol struct {
	tab, col int                   // the column's table among tabs, and its position there
	vec      *storage.Vector       // nil for a column nothing gathers
	have     bool                  // vec holds the current batch
	get      func(int) value.Value // built on first use
}

func (b *tupleBatch) rows() int { return len(b.ids[0]) }

// next starts a new batch: nothing is gathered yet.
func (b *tupleBatch) next() {
	for i := range b.cols {
		b.cols[i].have = false
	}
}

func (b *tupleBatch) vector(i int) *storage.Vector {
	c := &b.cols[i]
	if !c.have {
		b.tabs[c.tab].Gather(c.col, b.ids[c.tab], c.vec)
		c.have = true
	}
	return c.vec
}

func (b *tupleBatch) row(k int) expr.Row { b.k = k; return b }

// ColumnValue boxes column i of the current tuple.
func (b *tupleBatch) ColumnValue(i int) value.Value {
	c := &b.cols[i]
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
}

// batchStage is one operator above the scan: a filter or a hash join, with
// what a traced statement records of it.
type batchStage struct {
	filter *filterIter
	join   *hashJoin
	tables int           // FROM tables in the tuples this stage reads
	sel    tableFilter   // filter on the scanned table alone: the kernels apply
	pos    []int32       // filter on joined tuples: positions kept
	in     [][]int32     // join: the probe batch's id vectors, while the joined ones flow on
	out    [][]int32     // join: the joined id vectors
	rows   int64         // rows handed on
	ns     time.Duration // time in the stage itself
}

// batchSelect is a plain select's FROM pipeline as stages over a tupleBatch.
type batchSelect struct {
	scan   *tableScan
	stages []batchStage // scan side first
	src    tupleBatch
	proj   *projector
	gov    *governor
	timed  bool
	scanNs time.Duration
}

// planBatchSelect compiles the pipeline in — a fresh scan of a stored table
// under filters and hash joins — or returns nil when in is anything else (a
// nested loop, a materialized relation, a scan already advanced).
func planBatchSelect(in iterator, proj *projector, gov *governor) *batchSelect {
	b := &batchSelect{proj: proj, gov: gov}
	depth := 0
	for cur := in; b.scan == nil; depth++ {
		switch n := cur.(type) {
		case *filterIter:
			cur = n.child
		case *hashJoin:
			cur = n.left
		case *tableScan:
			if n.pos != 0 {
				return nil
			}
			b.scan = n
		default:
			return nil
		}
	}
	b.stages = make([]batchStage, depth-1)
	for cur, i := in, depth-2; i >= 0; i-- {
		switch n := cur.(type) {
		case *filterIter:
			b.stages[i].filter, cur = n, n.child
		case *hashJoin:
			b.stages[i].join, cur = n, n.left
		}
	}
	tabs := make([]*storage.Table, 1, depth)
	tabs[0] = b.scan.tab
	for i := range b.stages {
		st := &b.stages[i]
		st.tables = len(tabs)
		switch {
		case st.join != nil:
			tabs = append(tabs, st.join.build.tab)
			vecs := make([][]int32, 2*st.tables+1)
			st.in, st.out = vecs[:st.tables:st.tables], vecs[st.tables:]
			for t := range st.out {
				st.out[t] = batch.Default.GetSel(batch.Size)
			}
		case st.tables == 1:
			st.sel = newTableFilter(b.scan.tab, st.filter.pred)
		}
	}
	b.src.init(tabs, proj.ops)
	b.timed = b.scan.stats != nil
	return b
}

// run drives the pipeline over every row the scan visits and returns the rows
// projected.
func (b *batchSelect) run() (int, error) {
	defer b.release()
	// The builds come first, the outermost join's before the ones below it, as
	// the row iterators' first next() runs them.
	for i := len(b.stages) - 1; i >= 0; i-- {
		if j := b.stages[i].join; j != nil {
			if err := j.build.ensure(); err != nil {
				return 0, err
			}
		}
	}
	n := b.scan.count()
	if len(b.stages) == 0 {
		b.proj.reserve(n) // an unfiltered scan knows its row count
	}
	sel := batch.Default.GetSel(min(batch.Size, n))
	defer batch.Default.PutSel(sel)
	for base := 0; base < n; base += batch.Size {
		bn := min(batch.Size, n-base)
		t0 := b.now()
		if b.scan.order != nil {
			sel = append(sel[:0], b.scan.order[base:base+bn]...)
		} else {
			sel = rowRange(sel, base, bn)
		}
		b.src.ids[0] = sel
		b.scanNs += b.since(t0)
		err := b.stage(0)
		if err == nil {
			err = b.gov.addScanned(int64(bn))
		}
		if err != nil {
			return b.proj.n, err
		}
	}
	if !b.scan.counted {
		b.scan.counted = true
		mRowsScanned.Add(int64(n))
	}
	return b.proj.n, nil
}

func (b *batchSelect) now() time.Time {
	if !b.timed {
		return time.Time{}
	}
	return time.Now()
}

func (b *batchSelect) since(t0 time.Time) time.Duration {
	if !b.timed {
		return 0
	}
	return time.Since(t0)
}

// stage runs stage i and everything above it over the batch in b.src; past
// the last stage the projector takes it.
func (b *batchSelect) stage(i int) error {
	if i == len(b.stages) {
		b.src.next()
		return b.proj.project(&b.src)
	}
	st := &b.stages[i]
	if st.join != nil {
		return b.joinStage(i, st)
	}
	t0 := b.now()
	var pending error
	if st.tables == 1 {
		b.src.ids[0], pending = st.sel.apply(b.src.ids[0])
	} else {
		st.pos = st.pos[:0]
		for k, n := 0, b.src.rows(); k < n && pending == nil; k++ {
			v, err := st.filter.pred.Eval(b.src.row(k))
			if pending = err; err == nil && v.Truthy() {
				st.pos = append(st.pos, int32(k))
			}
		}
		b.src.keep(st.pos, st.tables)
	}
	st.rows += int64(b.src.rows())
	st.ns += b.since(t0)
	if err := b.stage(i + 1); err != nil {
		return err
	}
	return pending
}

// joinStage probes the build side with each tuple of the batch and hands the
// joined tuples on batch.Size at a time, so a wide fan-out is governed — and
// charged — as it is produced, not after.
func (b *batchSelect) joinStage(i int, st *batchStage) error {
	t0 := b.now()
	copy(st.in, b.src.ids)
	flush := func() error {
		copy(b.src.ids, st.out)
		st.rows += int64(len(st.out[0]))
		st.ns += b.since(t0)
		err := b.stage(i + 1)
		copy(b.src.ids, st.in)
		for t := range st.out {
			st.out[t] = st.out[t][:0]
		}
		t0 = b.now()
		return err
	}
	for k, n := 0, len(st.in[0]); k < n; k++ {
		matches := st.join.build.probe(b.src.row(k))
		if len(matches) == 0 && st.join.outer {
			matches = unmatched
		}
		for _, m := range matches {
			for t, ids := range st.in {
				st.out[t] = append(st.out[t], ids[k])
			}
			st.out[st.tables] = append(st.out[st.tables], int32(m))
			if len(st.out[0]) == batch.Size {
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	if len(st.out[0]) == 0 {
		st.ns += b.since(t0)
		return nil
	}
	return flush()
}

// unmatched is the match list of an outer join's probe row without a match.
var unmatched = []int{-1}

// release returns the joins' id vectors to the pool and, for a traced
// statement, records each operator's rows and — inclusive of the operators
// below it, as the row iterators clock themselves — time.
func (b *batchSelect) release() {
	for i := range b.stages {
		for _, ids := range b.stages[i].out {
			batch.Default.PutSel(ids)
		}
	}
	if !b.timed {
		return
	}
	ns := b.scanNs
	*b.scan.stats = opStats{ns: int64(ns), rows: int64(b.scan.count())}
	for i := range b.stages {
		st := &b.stages[i]
		ns += st.ns
		stats := opStats{ns: int64(ns), rows: st.rows}
		if st.join != nil {
			*st.join.stats = stats
		} else {
			*st.filter.stats = stats
		}
	}
}
