package engine

import (
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/expr"
	"repro/internal/storage"
)

// bindExpr binds e against a relation schema (expr.Bind).
func bindExpr(e expr.Expr, sch relSchema) (expr.Expr, error) {
	return expr.Bind(e, sch.resolve)
}

// splitConjuncts flattens an AND tree into its conjuncts.
func splitConjuncts(e expr.Expr) []expr.Expr {
	if b, ok := e.(*expr.BinaryOp); ok && b.Op == "AND" {
		return append(splitConjuncts(b.Left), splitConjuncts(b.Right)...)
	}
	return []expr.Expr{e}
}

// andAll rebuilds a conjunction; nil for an empty list.
func andAll(conjuncts []expr.Expr) expr.Expr {
	var out expr.Expr
	for _, c := range conjuncts {
		if out == nil {
			out = c
		} else {
			out = &expr.BinaryOp{Op: "AND", Left: out, Right: c}
		}
	}
	return out
}

// joinPair is one extracted equijoin condition: leftIdx in the left (probe)
// schema equals rightIdx in the right (build) schema. nullSafe pairs treat
// two NULLs as equal (extracted from the null-safe disjunction the
// percentage-query generator emits, "a = b OR (a IS NULL AND b IS NULL)").
type joinPair struct {
	leftIdx  int
	rightIdx int
	nullSafe bool
}

// extractEquiPairs partitions conjuncts into equijoin pairs connecting the
// two schemas and residual predicates over the combined schema. It accepts
// plain equalities and the null-safe disjunction form, between two columns
// of one type: a join key holds a column's values as its type lays them out
// (keys.go), where = compares an INTEGER with a REAL through float64, so a
// cross-type equality stays a predicate.
func extractEquiPairs(conjuncts []expr.Expr, left, right relSchema) (pairs []joinPair, residual []expr.Expr) {
	for _, c := range conjuncts {
		if p, ok := equiPair(c, left, right); ok {
			pairs = append(pairs, p)
		} else {
			residual = append(residual, c)
		}
	}
	return pairs, residual
}

// equiPair returns c as a pair, if it equates a column of left with one of
// right of the same type, either way round.
func equiPair(c expr.Expr, left, right relSchema) (joinPair, bool) {
	lc, rc, nullSafe := matchJoinCondition(c)
	if lc == nil {
		return joinPair{}, false
	}
	for _, lr := range [2][2]*expr.ColumnRef{{lc, rc}, {rc, lc}} {
		li, lerr := left.resolve(lr[0].Qualifier, lr[0].Name)
		ri, rerr := right.resolve(lr[1].Qualifier, lr[1].Name)
		if lerr == nil && rerr == nil && left[li].Type == right[ri].Type {
			return joinPair{leftIdx: li, rightIdx: ri, nullSafe: nullSafe}, true
		}
	}
	return joinPair{}, false
}

// matchJoinCondition recognizes "colA = colB" and the null-safe form
// "colA = colB OR (colA IS NULL AND colB IS NULL)", returning the two
// column references.
func matchJoinCondition(c expr.Expr) (l, r *expr.ColumnRef, nullSafe bool) {
	b, ok := c.(*expr.BinaryOp)
	if !ok {
		return nil, nil, false
	}
	if b.Op == "=" {
		lc, lok := b.Left.(*expr.ColumnRef)
		rc, rok := b.Right.(*expr.ColumnRef)
		if lok && rok {
			return lc, rc, false
		}
		return nil, nil, false
	}
	if b.Op != "OR" {
		return nil, nil, false
	}
	eq, ok := b.Left.(*expr.BinaryOp)
	if !ok || eq.Op != "=" {
		return nil, nil, false
	}
	lc, lok := eq.Left.(*expr.ColumnRef)
	rc, rok := eq.Right.(*expr.ColumnRef)
	if !lok || !rok {
		return nil, nil, false
	}
	and, ok := b.Right.(*expr.BinaryOp)
	if !ok || and.Op != "AND" {
		return nil, nil, false
	}
	n1, ok1 := and.Left.(*expr.IsNull)
	n2, ok2 := and.Right.(*expr.IsNull)
	if !ok1 || !ok2 || n1.Negate || n2.Negate {
		return nil, nil, false
	}
	c1, ok1 := n1.Operand.(*expr.ColumnRef)
	c2, ok2 := n2.Operand.(*expr.ColumnRef)
	if !ok1 || !ok2 {
		return nil, nil, false
	}
	if sameColRef(lc, c1) && sameColRef(rc, c2) || sameColRef(lc, c2) && sameColRef(rc, c1) {
		return lc, rc, true
	}
	return nil, nil, false
}

func sameColRef(a, b *expr.ColumnRef) bool {
	return strings.EqualFold(a.Qualifier, b.Qualifier) && strings.EqualFold(a.Name, b.Name)
}

// buildSide is the right side of a hash join: a joinIndex over the join
// columns of a stored table — the table's own when it declares one on them
// (the paper's subkey-index optimization), cached on the table, built by the
// first join that reads it; an ad-hoc one built for the run otherwise. The
// index is had only when the join runs (ensure), so constructing the join —
// which EXPLAIN does to render real plan decisions — costs nothing; only the
// cheap definition check runs eagerly because the plan text reports which
// build strategy applies.
type buildSide struct {
	tab       *storage.Table
	pairs     []joinPair
	def       *storage.Index // the table's index on the join columns, or nil
	ix        *joinIndex
	keys      keyCols // the probe side's key (probeKeys)
	built     bool
	buildNs   int64 // wall time of ensure, for traces
	buildRows int64 // rows the index read this run
}

// newBuildSide sets up the build over a base table, through the table's index
// on the join columns if it declares one.
func newBuildSide(right *storage.Table, rightSch relSchema, pairs []joinPair) *buildSide {
	cols := make([]string, len(pairs))
	for i, p := range pairs {
		cols[i] = rightSch[p.rightIdx].Name
	}
	return &buildSide{tab: right, pairs: pairs, def: right.IndexOn(cols)}
}

// ensure has the index, once, before the first probe, and records the
// join-build metrics (EXPLAIN never runs it, so never counts). A build is one
// of the statement's long loops: it checks gov every govStride rows. An
// ad-hoc build charges its rows against the row budget; a declared index's,
// the table's to keep, charges nothing.
func (b *buildSide) ensure(gov *governor) error {
	if b.built {
		return nil
	}
	b.built = true
	if err := chaos.Hit(chaos.JoinBuild); err != nil {
		return err
	}
	t0 := time.Now()
	defer func() { b.buildNs = time.Since(t0).Nanoseconds() }()
	cols := make([]int, len(b.pairs))
	for i, p := range b.pairs {
		cols[i] = p.rightIdx
	}
	if b.def == nil {
		mJoinBuilds.Inc()
		b.buildRows = int64(b.tab.NumRows())
		ix, err := buildIndex(b.tab, cols, gov)
		b.ix = ix
		return err
	}
	mJoinIndexReuse.Inc()
	ix, err := b.tab.JoinIndex(b.def, func() (any, error) {
		b.buildRows = int64(b.tab.NumRows())
		return buildIndex(b.tab, cols, gov.uncharged())
	})
	b.ix, _ = ix.(*joinIndex)
	return err
}

// probeKeys lays out the probe side's key, a component a pair: its column
// among tabs, the tables before the join, NULL-extended where nullable says.
// A VARCHAR column under another dictionary than the index's is recoded
// into that one's, each code the first time a tuple of the run meets it.
func (b *buildSide) probeKeys(tabs []*storage.Table, nullable func(int) bool) {
	cols := make([]keyCol, len(b.pairs))
	for i, p := range b.pairs {
		t, col, _ := locate(tabs, p.leftIdx)
		c := keyCol{vec: *tabs[t].Column(col), t: t, col: col, outer: nullable(t)}
		c.vec.Nulls = c.vec.Nulls.Trim()
		if to := b.ix.keys.cols[i].vec.Dict; c.vec.Type == storage.TypeString && c.vec.Dict != to {
			c.recode, c.into = make([]int32, c.vec.Dict.Len()), to
		}
		cols[i] = c
	}
	b.keys = newKeyCols(cols)
}

// lookup writes to ids the index id of the key of each tuple of tb, through
// w's scratch: -1 for a key the index lacks, and for one with a NULL
// component a plain equality compares — only the null-safe form matches
// NULL.
func (b *buildSide) lookup(w *foldWorker, tb *tupleBatch, ids []int32) error {
	if err := w.resolve(&b.keys, &b.ix.tab, tb, 0, len(ids), ids, false); err != nil {
		return err
	}
	for c, p := range b.pairs {
		if v, rows := b.keys.source(c, tb, 0, len(ids), w.mat); !p.nullSafe && len(v.Nulls) > 0 {
			for k, r := range rows {
				if v.Nulls.Get(int(r)) {
					ids[k] = -1
				}
			}
		}
	}
	return nil
}

// joinIndex is a join's build side: the distinct keys of its table's join
// columns, laid out by keys.go — on the direct route when the columns'
// ranges fit — and each key's rows, ascending, at rows[offs[id]:offs[id+1]].
// Once built it is only read: the workers of a fold share it, and a cached
// one its table's readers.
type joinIndex struct {
	keys       keyCols
	tab        groupTable // no slot is coded: a stored column is typed
	offs, rows []int32
}

// matches returns the rows of index id, ascending; none for -1.
func (ix *joinIndex) matches(id int32) []int32 {
	if id < 0 {
		return nil
	}
	return ix.rows[ix.offs[id]:ix.offs[id+1]]
}

// buildIndex returns the index of t's rows on the columns cols. The keys are
// read a batch at a time, as a fold's are, charged against gov's row budget;
// the rows land in place by a counting sort on their ids, so the index costs
// O(1) allocations, not one a key.
func buildIndex(t *storage.Table, cols []int, gov *governor) (*joinIndex, error) {
	kcs := make([]keyCol, len(cols))
	for i, c := range cols {
		kcs[i] = keyCol{vec: *t.Column(c), col: c}
		kcs[i].vec.Nulls = kcs[i].vec.Nulls.Trim()
	}
	n, ix := t.NumRows(), &joinIndex{keys: newKeyCols(kcs)}
	b, _ := directBounds(&ix.keys, []*storage.Table{t}, n, nil)
	ix.tab = newGroupTable(ix.keys.layout, &b, nil)
	ids := make([]int32, n+batchSize)
	tb := tupleBatch{ids: [][]int32{nil}}
	var w foldWorker
	for base := 0; base < n; base += batchSize {
		bn := min(batchSize, n-base)
		if err := gov.addRows(int64(bn)); err != nil {
			return nil, err
		}
		tb.ids[0] = rowRange(ids[n:], base, bn)
		if err := w.resolve(&ix.keys, &ix.tab, &tb, 0, bn, ids[base:], true); err != nil {
			return nil, err
		}
	}
	// offs[id+2] counts id's rows, then, summed, is where id+1's start, then
	// offs[id+1], each row placed moving it on, where id's end.
	ix.offs, ix.rows = make([]int32, ix.tab.len()+2), make([]int32, n)
	for _, id := range ids[:n] {
		ix.offs[id+2]++
	}
	for id := 2; id < len(ix.offs); id++ {
		ix.offs[id] += ix.offs[id-1]
	}
	for r, id := range ids[:n] {
		ix.rows[ix.offs[id+1]], ix.offs[id+1] = int32(r), ix.offs[id+1]+1
	}
	return ix, nil
}

// hashJoin probes a build side over its right table with every tuple of its
// left input. outer selects LEFT OUTER semantics: a probe tuple without a
// match is handed on once, NULL-extended.
type hashJoin struct {
	left   planNode
	build  *buildSide
	outer  bool
	sch    relSchema
	rightW int
	stats  *opStats
}

// newHashJoin sets up the join against a base table right side.
func newHashJoin(left planNode, right *storage.Table, rightAlias string, pairs []joinPair, outer bool) *hashJoin {
	rightSch := schemaOf(right, rightAlias)
	return &hashJoin{
		left:   left,
		build:  newBuildSide(right, rightSch, pairs),
		outer:  outer,
		sch:    append(append(relSchema{}, left.schema()...), rightSch...),
		rightW: len(rightSch),
	}
}

func (j *hashJoin) schema() relSchema { return j.sch }

// nestedLoopJoin pairs every tuple of its left input with every row of its
// right table and keeps the pairs pred admits: the join of an ON clause that
// is not a conjunction of column equalities, and of a cross join. The right
// table is read in place (columns.go), so EXPLAIN, which never runs the join,
// pays nothing for it.
type nestedLoopJoin struct {
	left  planNode
	right *tableScan
	pred  expr.Expr // bound over the combined schema; nil means cross product
	outer bool
	sch   relSchema
	stats *opStats
	// opened is set, and openNs timed, once a run has read the right table:
	// the trace's "materialize right" span.
	opened bool
	openNs int64
}

func newNestedLoopJoin(left planNode, right *tableScan, pred expr.Expr, outer bool) *nestedLoopJoin {
	return &nestedLoopJoin{
		left:  left,
		right: right,
		pred:  pred,
		outer: outer,
		sch:   append(append(relSchema{}, left.schema()...), right.schema()...),
	}
}

func (j *nestedLoopJoin) schema() relSchema { return j.sch }

// open reads the right table for a run: its rows count as scanned once,
// however often the loop walks them.
func (j *nestedLoopJoin) open(gov *governor) error {
	t0 := time.Now()
	n := j.right.count()
	mRowsScanned.Add(int64(n))
	if j.right.stats != nil {
		*j.right.stats = opStats{rows: int64(n)}
	}
	err := gov.addScanned(int64(n))
	j.opened, j.openNs = true, time.Since(t0).Nanoseconds()
	return err
}
