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
// one otherwise. The ad-hoc index is built lazily, on the first probe, so
// constructing the join — which EXPLAIN does to render real plan decisions —
// costs nothing; only the cheap index check runs eagerly because the plan
// text reports which build strategy applies.
type buildSide struct {
	tab       *storage.Table
	pairs     []joinPair
	ix        *index.Index // key → row ids of tab
	useIndex  bool
	built     bool
	buildNs   int64 // wall time of the ad-hoc build, for traces
	buildRows int64
	gov       *governor // statement governor; nil when ungoverned
	keyBuf    []byte
}

// newBuildSide sets up the build over a base table. If the table has an index
// exactly on the join columns, the index serves as the hash table; otherwise
// an ad-hoc one is built — lazily, on the first probe (see ensure).
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
// one place a join key is encoded and looked up. The row is whatever view the
// caller has of it: a boxed row, or a batch of row ids positioned on one.
func (b *buildSide) probe(row expr.Row) []int {
	b.keyBuf = b.keyBuf[:0]
	for _, p := range b.pairs {
		v := row.ColumnValue(p.leftIdx)
		if v.IsNull() && !p.nullSafe {
			return nil // plain SQL equality never matches on NULL keys
		}
		b.keyBuf = value.AppendKey(b.keyBuf, v)
	}
	return b.ix.LookupKey(b.keyBuf)
}

// ensure performs the deferred build work on first probe and records the
// join-build metrics (EXPLAIN never probes, so it never counts here). The
// build loop is one of the statement's long loops: it checks the governor
// every govStride rows and charges the hash table against the row budget.
func (b *buildSide) ensure() error {
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
	ix, err := hashRows(b.tab, b.pairs, b.gov)
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

// hashJoin streams the left (probe) side against a materialized right
// (build) side. outer selects LEFT OUTER semantics: probe rows without a
// match emit once with NULL-extended build columns.
type hashJoin struct {
	left    iterator
	build   *buildSide
	outer   bool
	sch     relSchema
	rightW  int
	pending []int  // remaining matches for the current probe row
	current rowBox // current probe row (copy not needed within step)
	outBuf  []value.Value
	stats   *opStats
}

// newHashJoin sets up the join against a base table right side.
func newHashJoin(left iterator, right *storage.Table, rightAlias string, pairs []joinPair, outer bool) *hashJoin {
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

func (j *hashJoin) next() ([]value.Value, bool, error) {
	if j.stats != nil {
		t0 := time.Now()
		row, ok, err := j.step()
		j.stats.ns += time.Since(t0).Nanoseconds()
		if ok {
			j.stats.rows++
		}
		return row, ok, err
	}
	return j.step()
}

func (j *hashJoin) step() ([]value.Value, bool, error) {
	if err := j.build.ensure(); err != nil {
		return nil, false, err
	}
	// pctvet:ok each iteration dequeues a match or pulls left.next(), governed at the scan leaf
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
		if j.pending = j.build.probe(&j.current); len(j.pending) == 0 && j.outer {
			return j.emitNull(), true, nil
		}
	}
}

// emit concatenates the probe row with build row r into the reusable output
// buffer.
func (j *hashJoin) emit(r int) []value.Value {
	j.outBuf = j.outBuf[:0]
	j.outBuf = append(j.outBuf, j.current.vals...)
	for c := 0; c < j.rightW; c++ {
		j.outBuf = append(j.outBuf, j.build.tab.Get(r, c))
	}
	return j.outBuf
}

// emitNull extends the probe row with NULLs for a non-matching outer row.
func (j *hashJoin) emitNull() []value.Value {
	j.outBuf = j.outBuf[:0]
	j.outBuf = append(j.outBuf, j.current.vals...)
	for c := 0; c < j.rightW; c++ {
		j.outBuf = append(j.outBuf, value.Null)
	}
	return j.outBuf
}

// nestedLoopJoin is the reference fallback for joins whose ON clause is not
// a conjunction of column equalities. The right side materializes lazily on
// the first probe (so EXPLAIN constructs the join for free); the predicate
// is evaluated over each row pair.
type nestedLoopJoin struct {
	left     iterator
	rightSrc iterator
	right    *memRelation // nil until the first probe materializes rightSrc
	matNs    int64        // wall time of the lazy materialization, for traces
	pred     expr.Expr    // bound over the combined schema; nil means cross product
	box      rowBox
	outer    bool
	sch      relSchema
	cur      []value.Value
	curSet   bool
	rpos     int
	seen     bool
	outBuf   []value.Value
	stats    *opStats
	gov      *governor // governs the lazy right-side materialization
}

func newNestedLoopJoin(left iterator, rightSrc iterator, pred expr.Expr, outer bool) *nestedLoopJoin {
	return &nestedLoopJoin{
		left:     left,
		rightSrc: rightSrc,
		pred:     pred,
		outer:    outer,
		sch:      append(append(relSchema{}, left.schema()...), rightSrc.schema()...),
	}
}

func (j *nestedLoopJoin) schema() relSchema { return j.sch }

func (j *nestedLoopJoin) next() ([]value.Value, bool, error) {
	if j.stats != nil {
		t0 := time.Now()
		row, ok, err := j.step()
		j.stats.ns += time.Since(t0).Nanoseconds()
		if ok {
			j.stats.rows++
		}
		return row, ok, err
	}
	return j.step()
}

func (j *nestedLoopJoin) step() ([]value.Value, bool, error) {
	if j.right == nil {
		t0 := time.Now()
		m, err := materialize(j.rightSrc, j.gov)
		if err != nil {
			return nil, false, err
		}
		j.right = m
		j.matNs = time.Since(t0).Nanoseconds()
	}
	for {
		if !j.curSet {
			row, ok, err := j.left.next()
			if !ok || err != nil {
				return nil, false, err
			}
			j.cur = append(j.cur[:0], row...)
			j.curSet = true
			j.rpos = 0
			j.seen = false
		}
		for j.rpos < len(j.right.rows) {
			// The probe side polls only per left row; with |R| inner
			// iterations per probe the product can dwarf the scan stride,
			// so poll here too.
			if j.rpos%govStride == 0 {
				if err := j.gov.check(); err != nil {
					return nil, false, err
				}
			}
			r := j.right.rows[j.rpos]
			j.rpos++
			j.outBuf = append(append(j.outBuf[:0], j.cur...), r...)
			if j.pred != nil {
				j.box.vals = j.outBuf
				v, err := j.pred.Eval(&j.box)
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
		if j.outer && !j.seen {
			j.outBuf = append(j.outBuf[:0], j.cur...)
			for range j.right.sch {
				j.outBuf = append(j.outBuf, value.Null)
			}
			return j.outBuf, true, nil
		}
	}
}

// Compile-time interface checks.
var (
	_ iterator = (*hashJoin)(nil)
	_ iterator = (*nestedLoopJoin)(nil)
	_ iterator = (*tableScan)(nil)
	_ iterator = (*filterIter)(nil)
	_ iterator = (*memRelation)(nil)
)
