package engine

import (
	"slices"

	"repro/internal/expr"
	"repro/internal/value"
)

// Dataflow between operators (DESIGN.md "Dataflow between operators"). A
// SELECT's consumer stage — projection, group projection, window projection,
// DISTINCT — does not return rows: it pushes each one through a reused
// buffer into a rowSink. INSERT … SELECT's sink appends to the target
// table's column vectors (dml.go), so a generated step's result lives only
// in the temp table it names; a collector keeps rows where the whole result
// is needed — the statement's Result.Rows, a sort over a computed key, a
// dedupe of aggregate output.

// rowSink receives a SELECT's output rows.
type rowSink interface {
	// reserve announces that n rows follow, when the producer knows (after a
	// fold, from an unfiltered scan or a materialized input).
	reserve(n int)
	// push delivers one row. The slice is the producer's buffer, valid only
	// during the call: a sink that keeps the row copies it.
	push(row []value.Value) error
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
	c.n++
	c.pending += estimateRowBytes(row)
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

func (c *collector) push(row []value.Value) error {
	w := len(row)
	if len(c.slab) < w {
		c.slab = make([]value.Value, w*max(c.expect-len(c.rows), len(c.rows)/2, 1))
	}
	c.rows = append(c.rows, c.slab[:w:w])
	copy(c.slab, row)
	c.slab = c.slab[w:]
	return c.charge.add(row)
}

// projector is the engine's one projection loop: it evaluates bound
// expressions over an input row into a reused buffer and pushes the buffer
// on, dropping rows that fail having first. As a sink it projects the rows a
// fold emits.
type projector struct {
	exprs []expr.Expr
	// slot[i] >= 0 when exprs[i] only names an input column: the cell is
	// copied without a trip through Eval.
	slot   []int
	having expr.Expr
	sink   rowSink
	out    []value.Value
	box    rowBox
	n      int // rows pushed on
}

func newProjector(exprs []expr.Expr, having expr.Expr, sink rowSink) *projector {
	p := &projector{exprs: exprs, having: having, sink: sink, out: make([]value.Value, len(exprs)), slot: make([]int, len(exprs))}
	for i, e := range exprs {
		p.slot[i] = -1
		switch n := e.(type) {
		case *expr.ColumnRef:
			if n.Bound() {
				p.slot[i] = n.Index
			}
		case *expr.SlotRef:
			p.slot[i] = n.Index
		}
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
	for i, e := range p.exprs {
		if s := p.slot[i]; s >= 0 {
			p.out[i] = row[s]
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
