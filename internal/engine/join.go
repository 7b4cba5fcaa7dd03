package engine

import (
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/expr"
	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/value"
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
// plain equalities and the null-safe disjunction form.
func extractEquiPairs(conjuncts []expr.Expr, left, right relSchema) (pairs []joinPair, residual []expr.Expr) {
	for _, c := range conjuncts {
		lc, rc, nullSafe := matchJoinCondition(c)
		if lc != nil {
			if li, err := left.resolve(lc.Qualifier, lc.Name); err == nil {
				if ri, err := right.resolve(rc.Qualifier, rc.Name); err == nil {
					pairs = append(pairs, joinPair{leftIdx: li, rightIdx: ri, nullSafe: nullSafe})
					continue
				}
			}
			if li, err := left.resolve(rc.Qualifier, rc.Name); err == nil {
				if ri, err := right.resolve(lc.Qualifier, lc.Name); err == nil {
					pairs = append(pairs, joinPair{leftIdx: li, rightIdx: ri, nullSafe: nullSafe})
					continue
				}
			}
		}
		residual = append(residual, c)
	}
	return pairs, residual
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

// buildSide is the right side of a hash join: a hash index over the join
// columns of a stored table — the table's own when one matches (the paper's
// subkey-index optimization skips the build phase by reusing it), an ad-hoc
// one otherwise. The ad-hoc index is built only when the join runs (ensure),
// so constructing the join — which EXPLAIN does to render real plan decisions
// — costs nothing; only the cheap index check runs eagerly because the plan
// text reports which build strategy applies.
type buildSide struct {
	tab       *storage.Table
	pairs     []joinPair
	ix        *index.Index // key → row ids of tab
	useIndex  bool
	built     bool
	buildNs   int64 // wall time of the ad-hoc build, for traces
	buildRows int64
}

// newBuildSide sets up the build over a base table. If the table has an index
// exactly on the join columns, the index serves as the hash table; otherwise
// an ad-hoc one is built when the join runs (see ensure).
func newBuildSide(right *storage.Table, rightSch relSchema, pairs []joinPair) *buildSide {
	cols := make([]string, len(pairs))
	for i, p := range pairs {
		cols[i] = rightSch[p.rightIdx].Name
	}
	b := &buildSide{tab: right, pairs: pairs, ix: right.IndexOn(cols)}
	b.useIndex = b.ix != nil
	return b
}

// probe returns the build rows whose join columns equal the probe row's — the
// one place a join key is encoded and looked up — and key, the caller's
// buffer, holding the encoding: the workers of a fold share one build side.
// The row is whatever view the caller has of it: a batch of id tuples
// positioned on one, or a boxed row.
func (b *buildSide) probe(row expr.Row, key []byte) ([]int, []byte) {
	key = key[:0]
	for _, p := range b.pairs {
		v := row.ColumnValue(p.leftIdx)
		if v.IsNull() && !p.nullSafe {
			return nil, key // plain SQL equality never matches on NULL keys
		}
		key = value.AppendKey(key, v)
	}
	return b.ix.LookupKey(key), key
}

// ensure performs the deferred build work, once, before the first probe, and
// records the join-build metrics (EXPLAIN never runs it, so never counts). The
// build loop is one of the statement's long loops: it checks gov every
// govStride rows and charges the hash table against the row budget.
func (b *buildSide) ensure(gov *governor) error {
	if b.built {
		return nil
	}
	b.built = true
	if err := chaos.Hit(chaos.JoinBuild); err != nil {
		return err
	}
	if b.useIndex {
		mJoinIndexReuse.Inc()
		return nil
	}
	t0 := time.Now()
	ix, err := hashRows(b.tab, b.pairs, gov)
	if err != nil {
		return err
	}
	b.ix, b.buildRows = ix, int64(b.tab.NumRows())
	b.buildNs = time.Since(t0).Nanoseconds()
	mJoinBuilds.Inc()
	return nil
}

// hashRows builds the ad-hoc hash index of t's rows on the pairs' right-side
// columns, charging the rows against gov's row budget every govStride.
func hashRows(t *storage.Table, pairs []joinPair, gov *governor) (*index.Index, error) {
	ix := index.New("", nil)
	get := make([]func(int) value.Value, len(pairs))
	for i, p := range pairs {
		get[i] = t.CellGetter(p.rightIdx)
	}
	key := make([]value.Value, len(pairs))
	n := t.NumRows()
	for r := 0; r < n; r++ {
		if r > 0 && r%govStride == 0 {
			if err := gov.addRows(govStride); err != nil {
				return nil, err
			}
		}
		for i := range get {
			key[i] = get[i](r)
		}
		ix.Add(key, r)
	}
	return ix, gov.addRows(int64(n % govStride))
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
