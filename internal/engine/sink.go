package engine

import (
	"slices"

	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

// Dataflow between operators (DESIGN.md "Dataflow between operators"). A
// SELECT's consumer stage — projection, group projection, window projection,
// DISTINCT — does not return rows: it pushes them into a rowSink, a batch of
// column vectors at a time (a plain select, a fold's groups) or one row
// through a reused buffer (a computed projection of groups, a window's rows).
// INSERT … SELECT's sink appends to the target table's column
// vectors (dml.go), so a generated step's result lives only in the temp table
// it names; a collector boxes rows where the whole result is needed — the
// statement's Result.Rows, a sort over a computed key, a dedupe of aggregate
// output.

// rowSink receives a SELECT's output rows.
type rowSink interface {
	// reserve announces that n rows follow, when the producer knows (after a
	// fold, from an unfiltered scan or a window's collected input).
	reserve(n int)
	// push delivers one row. The slice is the producer's buffer, valid only
	// during the call: a sink that keeps the row copies it.
	push(row []value.Value) error
	// pushCols delivers n rows as one vector per column; cells past the n-th
	// are not part of the batch. The vectors are the producer's, valid only
	// during the call.
	pushCols(cols []*storage.Vector, n int) error
}

// rowCharge charges the rows a sink keeps against MaxRows and MaxBytes, one
// governor call per govStride rows; settle charges the remainder.
type rowCharge struct {
	gov     *governor
	n       int
	pending int64
}

func (c *rowCharge) add(row []value.Value) error {
	if c.gov == nil {
		return nil
	}
	return c.addRows(1, estimateRowBytes(row))
}

// addCols charges a batch what add would charge its rows one by one, each
// widened by fill NULL cells.
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
			for k, s := range v.Strs[:n] {
				if !v.Null(k) {
					bytes += int64(len(s))
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

// collector is the sink that keeps rows. They are carved from slabs — one
// when reserve knew the count, otherwise each half as large as everything
// kept so far, so a result of n rows costs O(log n) allocations and no slab
// is ever copied — as full slice expressions, so appending to a row cannot
// run into the next.
type collector struct {
	rows   [][]value.Value
	slab   []value.Value // unused tail of the newest slab
	expect int
	charge rowCharge
}

func (c *collector) reserve(n int) {
	c.expect, c.rows = len(c.rows)+n, slices.Grow(c.rows, n)
}

// carve appends n empty rows of width w, cut from one stretch of slab, and
// returns the stretch.
func (c *collector) carve(n, w int) []value.Value {
	if len(c.slab) < n*w {
		c.slab = make([]value.Value, w*max(n, c.expect-len(c.rows), len(c.rows)/2))
	}
	block := c.slab[:n*w]
	c.slab = c.slab[n*w:]
	for k := 0; k < n; k++ {
		c.rows = append(c.rows, block[k*w:(k+1)*w:(k+1)*w])
	}
	return block
}

func (c *collector) push(row []value.Value) error {
	copy(c.carve(1, len(row)), row)
	return c.charge.add(row)
}

// pushCols boxes the batch into n new rows, a column at a time: the one place
// a column vector becomes values.
func (c *collector) pushCols(cols []*storage.Vector, n int) error {
	w := len(cols)
	block := c.carve(n, w)
	for j, v := range cols {
		switch {
		case v.Boxed:
			for k, x := range v.Vals[:n] {
				block[k*w+j] = x
			}
		case v.Type == storage.TypeInt:
			for k, x := range v.Ints[:n] {
				block[k*w+j] = value.NewInt(x)
			}
		case v.Type == storage.TypeFloat:
			for k, x := range v.Flts[:n] {
				block[k*w+j] = value.NewFloat(x)
			}
		case v.Type == storage.TypeString:
			for k, x := range v.Strs[:n] {
				block[k*w+j] = value.NewString(x)
			}
		default:
			for k, x := range v.Bools[:n] {
				block[k*w+j] = value.NewBool(x)
			}
		}
		for k := 0; !v.Boxed && k < min(n, 64*len(v.Nulls)); k++ {
			if v.Nulls.Get(k) {
				block[k*w+j] = value.Null
			}
		}
	}
	return c.charge.addCols(cols, n, 0)
}

// dedupeSink is the DISTINCT of aggregate and window output: a sink that keeps
// the first of each distinct row pushed into it, keyed by its
// value.AppendKey encoding in a byte-route group table. A new key is a group,
// charged against MaxGroups as the fold charges one; a kept row is charged
// like any collected one. The rows are kept as they come, not copied, so the
// sink can filter the slice they came from in place.
type dedupeSink struct {
	tab    groupTable
	key    []byte
	gov    *governor
	rows   [][]value.Value
	charge rowCharge
}

func (d *dedupeSink) push(row []value.Value) error {
	d.key = d.key[:0]
	for _, v := range row {
		d.key = value.AppendKey(d.key, v)
	}
	if _, fresh := d.tab.lookupBytes(d.tab.hashBytes(d.key), d.key, true); !fresh {
		return nil
	}
	if err := d.gov.addGroups(1); err != nil {
		return err
	}
	d.rows = append(d.rows, row)
	return d.charge.add(row)
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
// into column ops, run over a batch of id tuples (consume) or a fold's batch
// of groups (pushCols), or over one input row through a reused buffer (push);
// rows that fail having are dropped first. As a sink it projects what a fold
// emits.
type projector struct {
	exprs  []expr.Expr
	ops    []colOp
	having expr.Expr
	sink   rowSink
	moves  bool              // no having, and every op a gather: a batch of columns passes through
	out    []value.Value     // push: the projected row
	cols   []*storage.Vector // consume, pushCols: the projected columns
	own    []storage.Vector  // consume: the columns it computes, in item order
	box    rowBox
	n      int // rows pushed on
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

func (p *projector) push(row []value.Value) error {
	p.box.vals = row
	if p.having != nil {
		hv, err := p.having.Eval(&p.box)
		if err != nil || !hv.Truthy() {
			return err
		}
	}
	if p.out == nil {
		p.out = make([]value.Value, len(p.exprs))
	}
	for i, e := range p.exprs {
		if op := p.ops[i]; op.kind == opGather {
			p.out[i] = row[op.a]
			continue
		}
		v, err := e.Eval(&p.box)
		if err != nil {
			return err
		}
		p.out[i] = v
	}
	p.n++
	return p.sink.push(p.out)
}

// pushCols projects a fold's batch of groups when every item only names a key
// or an aggregate (moves): the vectors move on. A fold whose projector
// computes pushes its groups row by row instead (foldOp.emit).
func (p *projector) pushCols(cols []*storage.Vector, n int) error {
	p.cols = slices.Grow(p.cols[:0], len(p.ops))[:len(p.ops)]
	for j, op := range p.ops {
		p.cols[j] = cols[op.a]
	}
	p.n += n
	return p.sink.pushCols(p.cols, n)
}

// consume runs the ops over one batch of id tuples and pushes the projected
// columns on. An evaluated item that raises cuts the batch short at its row,
// and the error waits until the rows before it have gone through the items
// after it and the sink: an error at an earlier row there wins, so the first
// error is the one a row-at-a-time evaluation raises.
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
		out.ResizeBoxed(n)
		for k := 0; k < n; k++ {
			v, err := p.exprs[j].Eval(src.row(k))
			if err != nil {
				n, pending = k, err
				break
			}
			out.Vals[k] = v
		}
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
