package engine

import (
	"fmt"
	"time"

	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

// The row-at-a-time reference engine: the test oracle the batch pipeline and
// the fold operator are proven against (reference, engine.go). Every plan
// node is pulled one boxed row at a time through a rowIter, every aggregate
// is folded by hashAggregateSeq — a map of groups, every CASE arm evaluated
// on every row, the paper's engine — and a window finds a row's partition
// results through a map by encoded key. Rows reach the product's sinks and
// projector one at a time, each a boxed batch of one (pushRows).
// UseReference (export_test.go) installs it.

// oracle is the reference engine.
type oracle struct{}

func (oracle) fold(in planNode, keys []expr.Expr, specs []aggSpec, ec execCtx, out rowSink) (int, error) {
	return foldRows(rowsOf(in, ec.gov), in, keys, specs, ec, out)
}

// foldRows folds it with hashAggregateSeq and pushes the groups into out. ops,
// when set, is the plan it pulls: the fold drains it, so its operator spans
// nest under the fold's.
func foldRows(it rowIter, ops planNode, keys []expr.Expr, specs []aggSpec, ec execCtx, out rowSink) (int, error) {
	sp := ec.span.NewChild("fold")
	rows, err := hashAggregateSeq(it, keys, specs, ec.gov)
	sp.End()
	sp.SetRows(-1, int64(len(rows)))
	if sp != nil && ops != nil {
		sp.AddChild(operatorSpans(ops))
	}
	if err != nil {
		return 0, err
	}
	out.reserve(len(rows))
	n, err := pushRows(rows, len(keys)+len(specs), ec.gov, out)
	mGroupsEmitted.Add(int64(n))
	return n, err
}

// pushRows pushes rows of width w into out one at a time, each a boxed batch
// of one row — the order of evaluation every batch must reproduce — checking
// the governor every govStride rows, and returns how many rows went.
func pushRows(rows [][]value.Value, w int, gov *governor, out rowSink) (int, error) {
	vecs, cols := make([]storage.Vector, w), make([]*storage.Vector, w)
	for j := range vecs {
		vecs[j].Boxed, cols[j] = true, &vecs[j]
	}
	for i, r := range rows {
		if i%govStride == 0 {
			if err := gov.check(); err != nil {
				return i, err
			}
		}
		for j := range vecs {
			vecs[j].Vals = r[j : j+1]
		}
		if err := out.pushCols(cols, 1); err != nil {
			return i, err
		}
	}
	return len(rows), nil
}

func (oracle) project(in planNode, proj *projector, ec execCtx) (int, error) {
	it := rowsOf(in, ec.gov)
	if scan, ok := in.(*tableScan); ok {
		proj.reserve(scan.count())
	}
	for {
		row, ok, err := it.next()
		if err != nil || !ok {
			return proj.n, err
		}
		if _, err := pushRows([][]value.Value{row}, len(row), nil, proj); err != nil {
			return proj.n, err
		}
		if proj.n%govStride == 0 {
			if err := ec.gov.check(); err != nil {
				return proj.n, err
			}
		}
	}
}

func (oracle) window(in planNode, parts []*windowPart, ec execCtx, proj *projector) error {
	input, err := materialize(rowsOf(in, ec.gov), ec.gov)
	if err != nil {
		return err
	}
	// Each partition list's group rows, and their positions by encoded key.
	w, slots := len(input.sch), 0
	groups, at := make([][][]value.Value, len(parts)), make([]map[string]int, len(parts))
	for i, p := range parts {
		out := &collector{charge: rowCharge{gov: ec.gov}}
		if _, err := foldRows(&memRelation{sch: input.sch, rows: input.rows}, nil, p.keys, p.specs, ec, out); err != nil {
			return err
		}
		if err := out.charge.settle(); err != nil {
			return err
		}
		groups[i] = out.boxedRows()
		at[i] = make(map[string]int, len(groups[i]))
		for gi, g := range groups[i] {
			at[i][string(value.EncodeKey(g[:len(p.cols)]...))] = gi
		}
		slots += len(p.specs)
	}
	// Every input row extended with its partitions' results.
	rows := make([][]value.Value, len(input.rows))
	for ri, r := range input.rows {
		ext := append(make([]value.Value, 0, w+slots), r...)[:w+slots]
		for i, p := range parts {
			var key []byte
			for _, c := range p.cols {
				key = value.AppendKey(key, r[c])
			}
			g := groups[i][at[i][string(key)]]
			for s, slot := range p.slots {
				ext[w+slot] = g[len(p.cols)+s]
			}
		}
		rows[ri] = ext
	}
	proj.reserve(len(rows))
	_, err = pushRows(rows, w+slots, ec.gov, proj)
	return err
}

// rowIter is a plan node's row-at-a-time form. next returns a row valid only
// until the following call; a consumer that keeps rows copies them.
type rowIter interface {
	schema() relSchema
	next() ([]value.Value, bool, error)
}

// rowsOf is the iterator over the plan in. Each operator records its actual
// rows and time in its node's opStats, when the statement is traced.
func rowsOf(in planNode, gov *governor) rowIter {
	switch n := in.(type) {
	case *tableScan:
		return &scanRows{node: n, gov: gov}
	case *filterIter:
		return &filterRows{node: n, child: rowsOf(n.child, gov)}
	case *hashJoin:
		return &hashJoinRows{node: n, left: rowsOf(n.left, gov), gov: gov}
	case *nestedLoopJoin:
		return &loopRows{node: n, left: rowsOf(n.left, gov), gov: gov}
	case *valuesNode:
		return &memRelation{rows: [][]value.Value{{}}, stats: n.stats}
	}
	panic(fmt.Sprintf("oracle: no iterator for %T", in))
}

// scanRows streams a base table, reusing one row buffer. Rows scanned are
// added to the metric once, at exhaustion.
type scanRows struct {
	node *tableScan
	gov  *governor
	pos  int
	buf  []value.Value
}

func (s *scanRows) schema() relSchema { return s.node.sch }

func (s *scanRows) next() ([]value.Value, bool, error) {
	if st := s.node.stats; st != nil {
		t0 := time.Now()
		row, ok, err := s.step()
		st.ns += time.Since(t0).Nanoseconds()
		if ok {
			st.rows++
		}
		return row, ok, err
	}
	return s.step()
}

func (s *scanRows) step() ([]value.Value, bool, error) {
	n, r := s.node, s.pos
	if r >= n.count() {
		mRowsScanned.Add(int64(s.pos))
		s.gov.addScanned(int64(s.pos % govStride))
		return nil, false, nil
	}
	if s.pos > 0 && s.pos%govStride == 0 {
		if err := s.gov.addScanned(govStride); err != nil {
			return nil, false, err
		}
	}
	s.buf = n.tab.Row(r, s.buf)
	s.pos++
	return s.buf, true, nil
}

// filterRows drops rows whose predicate is not truthy.
type filterRows struct {
	node  *filterIter
	child rowIter
	box   rowBox
}

func (f *filterRows) schema() relSchema { return f.child.schema() }

func (f *filterRows) next() ([]value.Value, bool, error) {
	if st := f.node.stats; st != nil {
		t0 := time.Now()
		row, ok, err := f.step()
		st.ns += time.Since(t0).Nanoseconds()
		if ok {
			st.rows++
		}
		return row, ok, err
	}
	return f.step()
}

func (f *filterRows) step() ([]value.Value, bool, error) {
	for {
		row, ok, err := f.child.next()
		if !ok || err != nil {
			return nil, false, err
		}
		f.box.vals = row
		v, err := f.node.pred.Eval(&f.box)
		if err != nil {
			return nil, false, err
		}
		if v.Truthy() {
			return row, true, nil
		}
	}
}

// hashJoinRows streams the left (probe) side against the build side, built
// on the first pull. It probes an index of its own, not the pipeline's
// joinIndex: a Go map from the value.AppendKey bytes of a build row's join
// columns to its rows, ascending.
type hashJoinRows struct {
	node    *hashJoin
	left    rowIter
	gov     *governor
	index   map[string][]int
	pending []int  // remaining matches for the current probe row
	current rowBox // current probe row
	key     []byte
	outBuf  []value.Value
}

// probe returns the build rows whose join columns equal the current row's:
// none when a plain pair's column is NULL, which SQL equality never matches.
func (j *hashJoinRows) probe() []int {
	b := j.node.build
	if j.index == nil {
		j.index = map[string][]int{}
		for r := 0; r < b.tab.NumRows(); r++ {
			var key []byte
			for _, p := range b.pairs {
				key = value.AppendKey(key, b.tab.Get(r, p.rightIdx))
			}
			j.index[string(key)] = append(j.index[string(key)], r)
		}
	}
	j.key = j.key[:0]
	for _, p := range b.pairs {
		v := j.current.ColumnValue(p.leftIdx)
		if v.IsNull() && !p.nullSafe {
			return nil
		}
		j.key = value.AppendKey(j.key, v)
	}
	return j.index[string(j.key)]
}

func (j *hashJoinRows) schema() relSchema { return j.node.sch }

func (j *hashJoinRows) next() ([]value.Value, bool, error) {
	if st := j.node.stats; st != nil {
		t0 := time.Now()
		row, ok, err := j.step()
		st.ns += time.Since(t0).Nanoseconds()
		if ok {
			st.rows++
		}
		return row, ok, err
	}
	return j.step()
}

func (j *hashJoinRows) step() ([]value.Value, bool, error) {
	if err := j.node.build.ensure(j.gov); err != nil {
		return nil, false, err
	}
	for {
		if len(j.pending) > 0 {
			r := j.pending[0]
			j.pending = j.pending[1:]
			return j.emit(r), true, nil
		}
		row, ok, err := j.left.next()
		if !ok || err != nil {
			return nil, false, err
		}
		j.current.vals = row
		if j.pending = j.probe(); len(j.pending) == 0 && j.node.outer {
			return j.emit(-1), true, nil
		}
	}
}

// emit concatenates the probe row with build row r — NULLs for -1 — into
// the reusable output buffer.
func (j *hashJoinRows) emit(r int) []value.Value {
	j.outBuf = append(j.outBuf[:0], j.current.vals...)
	for c := 0; c < j.node.rightW; c++ {
		v := value.Null
		if r >= 0 {
			v = j.node.build.tab.Get(r, c)
		}
		j.outBuf = append(j.outBuf, v)
	}
	return j.outBuf
}

// loopRows materializes the right side on the first pull and evaluates the
// predicate over each row pair.
type loopRows struct {
	node   *nestedLoopJoin
	left   rowIter
	right  *memRelation
	gov    *governor
	box    rowBox
	cur    []value.Value
	curSet bool
	rpos   int
	seen   bool
	outBuf []value.Value
}

func (j *loopRows) schema() relSchema { return j.node.sch }

func (j *loopRows) next() ([]value.Value, bool, error) {
	if st := j.node.stats; st != nil {
		t0 := time.Now()
		row, ok, err := j.step()
		st.ns += time.Since(t0).Nanoseconds()
		if ok {
			st.rows++
		}
		return row, ok, err
	}
	return j.step()
}

func (j *loopRows) step() ([]value.Value, bool, error) {
	if j.right == nil {
		t0 := time.Now()
		m, err := materialize(rowsOf(j.node.right, j.gov), j.gov)
		if err != nil {
			return nil, false, err
		}
		j.right = m
		j.node.opened, j.node.openNs = true, time.Since(t0).Nanoseconds()
	}
	for {
		if !j.curSet {
			row, ok, err := j.left.next()
			if !ok || err != nil {
				return nil, false, err
			}
			j.cur = append(j.cur[:0], row...)
			j.curSet, j.rpos, j.seen = true, 0, false
		}
		for j.rpos < len(j.right.rows) {
			// With |R| inner iterations per probe the product can dwarf the
			// scan stride, so poll here too.
			if j.rpos%govStride == 0 {
				if err := j.gov.check(); err != nil {
					return nil, false, err
				}
			}
			r := j.right.rows[j.rpos]
			j.rpos++
			j.outBuf = append(append(j.outBuf[:0], j.cur...), r...)
			if j.node.pred != nil {
				j.box.vals = j.outBuf
				v, err := j.node.pred.Eval(&j.box)
				if err != nil {
					return nil, false, err
				}
				if !v.Truthy() {
					continue
				}
			}
			j.seen = true
			return j.outBuf, true, nil
		}
		j.curSet = false
		if j.node.outer && !j.seen {
			j.outBuf = append(j.outBuf[:0], j.cur...)
			for range j.right.sch {
				j.outBuf = append(j.outBuf, value.Null)
			}
			return j.outBuf, true, nil
		}
	}
}

// memRelation is a materialized relation: the nested loop's right side, a
// window's input, the FROM-less select's one empty row.
type memRelation struct {
	sch   relSchema
	rows  [][]value.Value
	pos   int
	stats *opStats
}

func (m *memRelation) schema() relSchema { return m.sch }

func (m *memRelation) next() ([]value.Value, bool, error) {
	if m.pos >= len(m.rows) {
		return nil, false, nil
	}
	r := m.rows[m.pos]
	m.pos++
	if m.stats != nil {
		m.stats.rows++
	}
	return r, true, nil
}

// materialize drains an iterator into a memRelation, copying rows and
// charging every buffered row against the statement's row and byte budgets.
func materialize(it rowIter, gov *governor) (*memRelation, error) {
	keep := collector{charge: rowCharge{gov: gov}}
	if scan, ok := it.(*scanRows); ok {
		keep.reserve(scan.node.count())
	}
	for {
		row, ok, err := it.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return &memRelation{sch: it.schema(), rows: keep.boxedRows()}, keep.charge.settle()
		}
		if _, err := pushRows([][]value.Value{row}, len(row), nil, &keep); err != nil {
			return nil, err
		}
	}
}

// boxedRows is what the collector kept, as the rows Result.Box makes of it.
func (c *collector) boxedRows() [][]value.Value { return c.res.Box().Rows }

// refAccumulator is newAccumulator with the objects only the reference fold
// keeps: a plain sum and count, which the fold operator keeps as cells.
func refAccumulator(call *expr.AggCall) (accumulator, error) {
	switch {
	case call.Distinct:
	case call.Fn == expr.AggSum:
		return &sumAcc{}, nil
	case call.Fn == expr.AggCount:
		return &countAcc{star: call.Star}, nil
	}
	return newAccumulator(call, nil)
}

// countAcc counts rows (star) or non-NULL values.
type countAcc struct {
	star bool
	n    int64
}

func (a *countAcc) add(v value.Value) error {
	if a.star || !v.IsNull() {
		a.n++
	}
	return nil
}

func (a *countAcc) merge(o accumulator) error {
	b, ok := o.(*countAcc)
	if !ok {
		return mergeTypeError(a, o)
	}
	a.n += b.n
	return nil
}

func (a *countAcc) result() value.Value { return value.NewInt(a.n) }

// groupState accumulates one group.
type groupState struct {
	keyRow []value.Value
	accs   []accumulator
}

// hashAggregateSeq is the sequential reference fold: it consumes the input
// and produces one output row per group — the group-key values followed by
// one aggregate result per spec, each evaluated in full on every row. keyExprs are bound against the input
// schema. With no keys, a single global group is produced even for empty
// input (SQL semantics for aggregates without GROUP BY). Output rows follow
// the first-appearance order of their groups in the input; the fold operator
// (fold.go) reproduces exactly this order at any parallelism.
// gov, when non-nil, charges group creation against MaxGroups and checks
// cancellation every govStride input rows (base-table inputs also check in
// the scan; this covers materialized inputs).
func hashAggregateSeq(in rowIter, keyExprs []expr.Expr, specs []aggSpec, gov *governor) ([][]value.Value, error) {
	groups := make(map[string]*groupState)
	var order []string // first-appearance order, deterministic output
	keyBuf := make([]byte, 0, 64)
	keyRow := make([]value.Value, len(keyExprs))

	newGroup := func() (*groupState, error) {
		gs := &groupState{
			keyRow: append([]value.Value(nil), keyRow...),
			accs:   make([]accumulator, len(specs)),
		}
		for i, s := range specs {
			acc, err := refAccumulator(s.call)
			if err != nil {
				return nil, err
			}
			gs.accs[i] = acc
		}
		return gs, nil
	}

	var box rowBox
	var seen int
	for {
		row, ok, err := in.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		seen++
		if gov != nil && seen%govStride == 0 {
			if err := gov.check(); err != nil {
				return nil, err
			}
		}
		box.vals = row
		rv := &box
		keyBuf = keyBuf[:0]
		for i, ke := range keyExprs {
			v, err := ke.Eval(rv)
			if err != nil {
				return nil, err
			}
			keyRow[i] = v
			keyBuf = value.AppendKey(keyBuf, v)
		}
		gs, ok := groups[string(keyBuf)]
		if !ok {
			if gov != nil {
				if err := gov.addGroups(1); err != nil {
					return nil, err
				}
			}
			gs, err = newGroup()
			if err != nil {
				return nil, err
			}
			k := string(keyBuf)
			groups[k] = gs
			order = append(order, k)
		}
		for i, s := range specs {
			var v value.Value
			if s.arg != nil {
				v, err = s.arg.Eval(rv)
				if err != nil {
					return nil, err
				}
			}
			if err := gs.accs[i].add(v); err != nil {
				return nil, err
			}
		}
	}

	if len(keyExprs) == 0 && len(groups) == 0 {
		gs, err := newGroup()
		if err != nil {
			return nil, err
		}
		groups[""] = gs
		order = append(order, "")
	}

	out := make([][]value.Value, 0, len(groups))
	for _, k := range order {
		gs := groups[k]
		row := make([]value.Value, 0, len(gs.keyRow)+len(specs))
		row = append(row, gs.keyRow...)
		for _, acc := range gs.accs {
			row = append(row, acc.result())
		}
		out = append(out, row)
	}
	return out, nil
}
