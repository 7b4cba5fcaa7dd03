package engine

import (
	"slices"

	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

// Dataflow between operators (DESIGN.md "Dataflow between operators"). A
// SELECT's consumer stage — projection, group projection, window projection,
// DISTINCT — does not return rows: it pushes them into a rowSink a batch of
// column vectors at a time. INSERT … SELECT's sink appends to the target
// table's column vectors (dml.go), so a generated step's result lives only in
// the temp table it names; a colCollector keeps the columns a later stage
// needs whole — a sort over produced rows, a dedupe of aggregate output, a
// window's group results; and the statement's collector keeps the result as
// typed columns, which Result.Box boxes into rows only for a caller that asks.

// rowSink receives a SELECT's output rows.
type rowSink interface {
	// reserve announces that n rows follow, when the producer knows (after a
	// fold, from an unfiltered scan, a window's collected input or a
	// collected tail).
	reserve(n int)
	// pushCols delivers n rows as one vector per column; cells past the n-th
	// are not part of the batch. The vectors are the producer's, valid only
	// during the call.
	pushCols(cols []*storage.Vector, n int) error
}

// newVectors returns n empty vectors, to be sized by their producer.
func newVectors(n int) []*storage.Vector {
	vecs := make([]storage.Vector, n)
	cols := make([]*storage.Vector, n)
	for i := range vecs {
		cols[i] = &vecs[i]
	}
	return cols
}

// rowCharge charges the rows a sink keeps against MaxRows and MaxBytes, one
// governor call per govStride rows; settle charges the remainder.
type rowCharge struct {
	gov     *governor
	n       int
	pending int64
}

// addCols charges a batch of n rows, each widened by fill NULL cells, at an
// approximate resident size: 24 bytes a cell plus string payloads. Exactness
// is not the point — the budget guards order-of-magnitude blowups, not
// allocator accounting.
func (c *rowCharge) addCols(cols []*storage.Vector, n, fill int) error {
	if c.gov == nil {
		return nil
	}
	bytes := int64(len(cols)+fill) * 24 * int64(n)
	for _, v := range cols {
		switch {
		case v.Boxed:
			for _, x := range v.Vals[:n] {
				if x.Kind() == value.KindString {
					bytes += int64(len(x.Str()))
				}
			}
		case v.Type == storage.TypeString:
			strs := v.Dict.Strs()
			for k, c := range v.Codes[:n] {
				if !v.Null(k) {
					bytes += int64(len(strs[c]))
				}
			}
		}
	}
	return c.addRows(n, bytes)
}

func (c *rowCharge) addRows(n int, bytes int64) error {
	c.n += n
	c.pending += bytes
	if c.n < govStride {
		return nil
	}
	return c.settle()
}

func (c *rowCharge) settle() error {
	err := c.gov.addRows(int64(c.n))
	if err == nil {
		err = c.gov.addBytes(c.pending)
	}
	c.n, c.pending = 0, 0
	return err
}

// collector is the statement's result: it appends each batch to one typed
// vector per column (storage.Vector.Append), a VARCHAR column sharing its
// source's dictionary, and boxes nothing — Result.Box does, for a caller that
// asks. The columns' cells of one type are carved from one slab: sized once
// when reserve knew the count, otherwise regrown to twice what is kept, so a
// result of n rows costs O(log n) allocations whatever its width. The Result
// and, for a result of up to five columns — every Vpct answer of the
// benchmark's — its vectors live in the collector, one allocation for all.
type collector struct {
	res    Result
	narrow [5]storage.Vector
	room   int // rows every column has capacity for
	expect int
	charge rowCharge
}

func (c *collector) reserve(n int) { c.expect = c.res.n + n }

func (c *collector) pushCols(cols []*storage.Vector, n int) error {
	if c.res.vecs == nil {
		c.res.vecs = c.narrow[:]
		if len(cols) > len(c.narrow) {
			c.res.vecs = make([]storage.Vector, len(cols))
		}
		c.res.vecs = c.res.vecs[:len(cols):len(cols)]
	}
	if c.res.n+n > c.room {
		c.grow(max(c.res.n+n, c.expect, 2*c.room), func(j int) *storage.Vector { return cols[j] })
	}
	c.nullRoom(func(j int) *storage.Vector { return cols[j] })
	for j, v := range cols {
		c.res.vecs[j].Append(v, n)
	}
	c.res.n += n
	return c.charge.addCols(cols, n, 0)
}

// take makes the result the rows of src at perm, gathered straight into the
// vectors of dst, which the result keeps: the tail of a SELECT hands its
// sorted, deduplicated or limited rows over whole.
func (c *collector) take(src, dst []storage.Vector, perm []int32) {
	c.res.vecs = dst
	like := func(j int) *storage.Vector { return &src[j] }
	c.grow(len(perm), like)
	c.nullRoom(like)
	for j := range dst {
		dst[j].Gather(&src[j], perm)
	}
	c.res.n = len(perm)
}

// grow gives every column room for room cells, keeping the cells it holds:
// the columns of one form — boxed, or one column type — share one new slab.
// An empty column takes the form of like(j), the batch's.
func (c *collector) grow(room int, like func(j int) *storage.Vector) {
	vecs := c.res.vecs
	form := func(j int) (storage.ColumnType, bool) {
		v := &vecs[j]
		if v.Len() == 0 {
			v = like(j)
		}
		return v.Type, v.Boxed
	}
	var count [storage.TypeBool + 2]int // per column type, then boxed
	for j := range vecs {
		if typ, boxed := form(j); boxed {
			count[len(count)-1]++
		} else {
			count[typ]++
		}
	}
	ints := make([]int64, count[storage.TypeInt]*room)
	flts := make([]float64, count[storage.TypeFloat]*room)
	codes := make([]int32, count[storage.TypeString]*room)
	bools := make([]bool, count[storage.TypeBool]*room)
	vals := make([]value.Value, count[len(count)-1]*room)
	for j := range vecs {
		v := &vecs[j]
		switch typ, boxed := form(j); {
		case boxed:
			v.Vals, vals = carve(vals, v.Vals, room)
		case typ == storage.TypeInt:
			v.Ints, ints = carve(ints, v.Ints, room)
		case typ == storage.TypeFloat:
			v.Flts, flts = carve(flts, v.Flts, room)
		case typ == storage.TypeString:
			v.Codes, codes = carve(codes, v.Codes, room)
		default:
			v.Bools, bools = carve(bools, v.Bools, room)
		}
	}
	c.room = room
}

// nullRoom gives every column's NULL bitmap room for c.room cells, keeping
// its bits, all from one slab, when a column of like — the batch — has a NULL
// and its bitmap lacks that room.
func (c *collector) nullRoom(like func(j int) *storage.Vector) {
	words := (c.room + 63) >> 6
	for j := range c.res.vecs {
		if len(like(j).Nulls) > 0 && cap(c.res.vecs[j].Nulls) < words {
			slab := make(storage.NullBitmap, words*len(c.res.vecs))
			for i := range c.res.vecs {
				v := &c.res.vecs[i]
				v.Nulls, slab = carve(slab, v.Nulls, words)
			}
			return
		}
	}
}

// carve cuts a stretch of room cells from the front of slab, holding a copy
// of cells, and returns it with the rest of slab.
func carve[T any](slab, cells []T, room int) ([]T, []T) {
	cut := slab[:len(cells):room]
	copy(cut, cells)
	return cut, slab[room:]
}

// colCollector keeps, as one vector per column, what a later stage needs
// whole: the tail of a SELECT — a DISTINCT over produced rows, an ORDER BY
// that is not a scan sort, the LIMIT behind either — and a window's group
// results. A column stays typed while every batch agrees on its type and is
// boxed otherwise (storage.Vector.Append). Every row is charged once, here.
type colCollector struct {
	vecs   []storage.Vector
	out    []storage.Vector // emit's gather buffers
	n      int
	charge rowCharge
}

func newColCollector(width int, gov *governor) *colCollector {
	vecs := make([]storage.Vector, 2*width)
	return &colCollector{vecs: vecs[:width], out: vecs[width:], charge: rowCharge{gov: gov}}
}

func (c *colCollector) reserve(int) {}

func (c *colCollector) pushCols(cols []*storage.Vector, n int) error {
	for j, v := range cols {
		c.vecs[j].Append(v, n)
	}
	c.n += n
	return c.charge.addCols(cols, n, 0)
}

// distinct keeps, in order, the first of perm's positions of each distinct
// row: the fold's resolve looks the rows' keys up, a typed column one slot
// and a boxed one coded (keys.go), in a group table on the hash route.
// A new key is a group, charged against MaxGroups as the fold charges one.
func (c *colCollector) distinct(perm []int32, gov *governor) ([]int32, error) {
	cols := make([]keyCol, len(c.vecs))
	for j := range cols {
		cols[j].vec = c.vecs[j]
	}
	kc := newKeyCols(cols)
	tab := newGroupTable(kc.layout, &bounds{}, new(keyDict))
	// A worker of a fold with no aggregates: charging a group only counts it.
	w, b, ids := &foldWorker{gov: gov, part: &foldPart{op: &foldOp{}}}, &tupleBatch{ids: make([][]int32, 1)}, make([]int32, batchSize)
	kept := perm[:0]
	for lo := 0; lo < len(perm); lo += batchSize {
		if err := gov.check(); err != nil {
			return nil, err
		}
		b.ids[0] = perm[lo:min(lo+batchSize, len(perm))]
		if err := w.resolve(&kc, &tab, b, 0, len(b.ids[0]), ids, true); err != nil {
			return nil, err
		}
		for i, r := range b.ids[0] {
			if int(ids[i]) == len(kept) { // a new key: ids are dense, in order
				kept = append(kept, r)
			}
		}
	}
	mGroupsEmitted.Add(int64(len(kept)))
	return kept, nil
}

// emit gathers the first w columns of the rows at perm, a batch at a time,
// into sink.
func (c *colCollector) emit(perm []int32, w int, sink rowSink, gov *governor) error {
	sink.reserve(len(perm))
	cols := make([]*storage.Vector, w)
	for j := range cols {
		cols[j] = &c.out[j]
	}
	for base := 0; base < len(perm); base += batchSize {
		if err := gov.check(); err != nil {
			return err
		}
		ids := perm[base:min(base+batchSize, len(perm))]
		for j, v := range cols {
			v.Gather(&c.vecs[j], ids)
		}
		if err := sink.pushCols(cols, len(ids)); err != nil {
			return err
		}
	}
	return nil
}

// The column ops a projector compiles its expressions to, by how many input
// columns they read as vectors.
const (
	opEval   uint8 = iota // anything else: the tree walk, row by row
	opGather              // the item only names input column a: the vector moves
	opDivide              // the guarded division a / b (expr.Case.GuardedDiv): one typed loop
)

type colOp struct {
	kind uint8
	a, b int
}

// projector is the engine's one projection: bound expressions compiled once
// into column ops, run by one loop (consume) over a batch that provides each
// column as a vector and a row view — a batch of id tuples, a window's
// extended with its partitions' results, or a fold's batch of groups. As a
// sink it projects what a fold emits: when every item only names a key or an
// aggregate (moves) the vectors pass through untouched; otherwise HAVING
// selects the groups, the ones that pass are gathered, and the ops run over
// them.
type projector struct {
	exprs  []expr.Expr
	ops    []colOp
	having expr.Expr
	sink   rowSink
	moves  bool              // no having, and every op a gather: a batch of columns passes through
	cols   []*storage.Vector // the projected columns
	own    []storage.Vector  // the columns it computes, in item order
	vals   []value.Value     // an evaluated item's cells, before storage.Vector.Fill
	groups tupleBatch        // pushCols: the batch of groups
	pass   []int32           // HAVING: the positions of the groups that pass
	kept   []*storage.Vector // HAVING: their columns
	n      int               // rows pushed on
}

func newProjector(exprs []expr.Expr, having expr.Expr, sink rowSink) *projector {
	p := &projector{exprs: exprs, having: having, sink: sink, moves: having == nil, ops: make([]colOp, len(exprs))}
	for i, e := range exprs {
		switch n := e.(type) {
		case *expr.ColumnRef:
			if n.Bound() {
				p.ops[i] = colOp{kind: opGather, a: n.Index}
			}
		case *expr.SlotRef:
			p.ops[i] = colOp{kind: opGather, a: n.Index}
		case *expr.Case:
			if num, den, ok := n.GuardedDiv(); ok {
				p.ops[i] = colOp{kind: opDivide, a: num, b: den}
			}
		}
		p.moves = p.moves && p.ops[i].kind == opGather
	}
	return p
}

func (p *projector) reserve(n int) { p.sink.reserve(n) }

// pushCols projects a fold's batch of groups. A HAVING that raises at a group
// cuts the batch there, and its error waits for whatever the groups before it
// raise in the items.
func (p *projector) pushCols(cols []*storage.Vector, n int) error {
	if p.moves {
		p.cols = slices.Grow(p.cols[:0], len(p.ops))[:len(p.ops)]
		for j, op := range p.ops {
			p.cols[j] = cols[op.a]
		}
		p.n += n
		return p.sink.pushCols(p.cols, n)
	}
	b := &p.groups
	b.ext, b.n = cols, n
	var pending error
	if p.having != nil {
		pass := p.pass[:0]
		for k := 0; k < n; k++ {
			hv, err := p.having.Eval(b.row(k))
			if err != nil {
				pending = err
				break
			}
			if hv.Truthy() {
				pass = append(pass, int32(k))
			}
		}
		if p.pass = pass; len(pass) < n {
			if p.kept == nil {
				p.kept = newVectors(len(cols))
			}
			for j, v := range cols {
				p.kept[j].Gather(v, pass)
			}
			b.ext, b.n = p.kept, len(pass)
		}
	}
	if err := p.consume(b); err != nil {
		return err
	}
	return pending
}

// consume runs the ops over one batch and pushes the projected columns on. An
// evaluated item that raises cuts the batch short at its row, and the error
// waits until the rows before it have gone through the items after it and
// the sink: an error at an earlier row there wins, so the first error is the
// one a row-at-a-time evaluation raises.
func (p *projector) consume(src *tupleBatch) error {
	n := src.rows()
	var pending error
	p.cols = slices.Grow(p.cols[:0], len(p.ops))[:len(p.ops)]
	if p.own == nil {
		computed := 0
		for _, op := range p.ops {
			if op.kind != opGather {
				computed++
			}
		}
		p.own = make([]storage.Vector, computed)
	}
	own := p.own
	for j, op := range p.ops {
		if op.kind == opGather {
			p.cols[j] = src.vector(op.a)
			continue
		}
		out := &own[0]
		own, p.cols[j] = own[1:], out
		if op.kind == opDivide && divide(out, src.vector(op.a), src.vector(op.b), n) {
			continue
		}
		p.vals = slices.Grow(p.vals[:0], n)
		for k := 0; k < n; k++ {
			v, err := p.exprs[j].Eval(src.row(k))
			if err != nil {
				n, pending = k, err
				break
			}
			p.vals = append(p.vals, v)
		}
		out.Fill(p.vals)
	}
	p.n += n
	if err := p.sink.pushCols(p.cols, n); err != nil {
		return err
	}
	return pending
}

// divide is the guarded division CASE WHEN d <> 0 THEN n / d ELSE NULL END
// over typed numeric vectors, into out: NULL where n or d is NULL or d does
// not compare unequal to zero (zero, and NaN, which value.Compare calls equal
// to everything), else value.Div's quotient bit for bit. It reports false,
// out untouched, for vectors it does not take — boxed, or not numeric — which
// the tree walk evaluates instead.
func divide(out, num, den *storage.Vector, n int) bool {
	numeric := func(v *storage.Vector) bool {
		return !v.Boxed && (v.Type == storage.TypeInt || v.Type == storage.TypeFloat)
	}
	if !numeric(num) || !numeric(den) {
		return false
	}
	out.Resize(storage.TypeFloat, n)
	switch {
	case num.Type == storage.TypeInt && den.Type == storage.TypeInt:
		divideCells(out, num.Ints, den.Ints, n)
	case num.Type == storage.TypeInt:
		divideCells(out, num.Ints, den.Flts, n)
	case den.Type == storage.TypeInt:
		divideCells(out, num.Flts, den.Ints, n)
	default:
		divideCells(out, num.Flts, den.Flts, n)
	}
	for k := 0; len(num.Nulls)+len(den.Nulls) > 0 && k < n; k++ {
		if num.Null(k) || den.Null(k) {
			out.SetNull(k)
		}
	}
	return true
}

func divideCells[N, D int64 | float64](out *storage.Vector, num []N, den []D, n int) {
	for k := 0; k < n; k++ {
		if d := float64(den[k]); d < 0 || d > 0 {
			out.Flts[k] = float64(num[k]) / d
		} else {
			out.Flts[k] = 0
			out.SetNull(k)
		}
	}
}
