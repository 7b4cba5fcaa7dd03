package engine_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/value"
)

// joinKeyCols are the columns TestDifferentialBatchJoinKeys keys its joins
// on, in key order: every column type, and enough of them to make a key of
// nine components.
var joinKeyCols = []string{"i", "s", "f", "bo", "k5", "k6", "k7", "k8", "k9"}

// joinKeyRow is row r of the join fixtures: i over [0, 40) and s over 30
// strings, each NULL now and then; f over ten REALs with both zeros; bo
// NULL, false or true; k5–k9 over small ranges; v, the row's id, last.
func joinKeyRow(rng *rand.Rand, r int, strs []string) []value.Value {
	row := []value.Value{
		value.NewInt(int64(rng.Intn(40))),
		value.NewString(strs[rng.Intn(len(strs))]),
		value.NewFloat([]float64{0, math.Copysign(0, -1), 1.5, -2, 3, 1e300, -0.25, 7, 8, 9}[rng.Intn(10)]),
		value.NewBool(rng.Intn(2) == 0),
	}
	for k := 0; k < 5; k++ {
		row = append(row, value.NewInt(int64(rng.Intn(3))))
	}
	for c := range 4 {
		if rng.Intn(9) == 0 {
			row[c] = value.Null
		}
	}
	return append(row, value.NewInt(int64(r)))
}

// joinConds renders the join condition on the first n key columns between
// pr and b: plain equalities, or the null-safe form the percentage-query
// generator emits.
func joinConds(n int, nullSafe bool) string {
	conds := make([]string, n)
	for i, c := range joinKeyCols[:n] {
		conds[i] = fmt.Sprintf("pr.%[1]s = b.%[1]s", c)
		if nullSafe {
			conds[i] = fmt.Sprintf("(pr.%[1]s = b.%[1]s OR (pr.%[1]s IS NULL AND b.%[1]s IS NULL))", c)
		}
	}
	return strings.Join(conds, " AND ")
}

// TestDifferentialBatchJoinKeys proves the hash join's probe — a batch of
// keys looked up in a join index, a group table and each key's rows —
// equal to the oracle's own probe, a Go map over value.AppendKey bytes, at
// P = 1, 2 and 8. The probe table pr is joined to two build tables: bs, filled
// from pr, shares its VARCHAR dictionary; bd, appended row by row in another
// order, has one of its own, so the probe's codes are recoded. Keys of 1 to
// 4 columns and of 9 (past the direct route's eight) over INTEGER, VARCHAR,
// REAL with both zeros, and BOOLEAN; duplicate build keys, probe keys the
// build side lacks, NULLs under = and under the null-safe form; inner joins
// in WHERE and in ON, LEFT OUTER with unmatched tuples; INTEGER = REAL
// pairs, which stay predicates. Row order is part of the answer: a probe
// tuple meets its matches in build-row order. Each query runs as a plain
// select and grouped by a build column, so the fold's partitions probe too;
// bs joins through declared indexes, cached on the table, bd through ad-hoc
// ones. It all runs again after an append to bs and after an UPDATE of its
// keys, each of which has the next join rebuild the cached indexes.
func TestDifferentialBatchJoinKeys(t *testing.T) {
	cat := storage.NewCatalog()
	p := core.NewPlanner(engine.New(cat))
	schema := storage.Schema{{Name: "i", Type: storage.TypeInt}, {Name: "s", Type: storage.TypeString},
		{Name: "f", Type: storage.TypeFloat}, {Name: "bo", Type: storage.TypeBool}}
	for _, c := range joinKeyCols[4:] {
		schema = append(schema, storage.ColumnDef{Name: c, Type: storage.TypeInt})
	}
	schema = append(schema, storage.ColumnDef{Name: "v", Type: storage.TypeInt})
	tabs := map[string]*storage.Table{}
	for _, name := range []string{"pr", "bs", "bd"} {
		tab, err := cat.Create(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		tabs[name] = tab
	}
	var strs, late []string
	for i := range 30 {
		strs = append(strs, fmt.Sprint("s", i))
		late = append(late, fmt.Sprint("s", 45-i)) // s16 … s45: half of them unknown to pr
	}
	rng := rand.New(rand.NewSource(37))
	for r := range 1500 {
		tabs["pr"].AppendRow(joinKeyRow(rng, r, strs))
	}
	for r := range 160 {
		tabs["bd"].AppendRow(joinKeyRow(rng, r, late))
	}
	exec := func(sql string) {
		t.Helper()
		if _, err := p.Eng.ExecSQL(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	exec("INSERT INTO bs SELECT * FROM pr WHERE v < 130")
	if pd, bs, bd := tabs["pr"].Column(1).Dict, tabs["bs"].Column(1).Dict, tabs["bd"].Column(1).Dict; pd != bs || pd == bd {
		t.Fatalf("fixture: bs must share pr's dictionary (%v), bd must not (%v)", pd == bs, pd != bd)
	}
	for _, n := range []int{1, 2, 3, 4, 9} {
		exec(fmt.Sprintf("CREATE INDEX bs_%d ON bs (%s)", n, strings.Join(joinKeyCols[:n], ", ")))
	}
	var queries []string
	for _, b := range []string{"bs", "bd"} {
		for _, n := range []int{1, 2, 3, 4, 9} {
			for _, from := range []string{
				"FROM pr, " + b + " b WHERE " + joinConds(n, false),
				"FROM pr, " + b + " b WHERE " + joinConds(n, true),
				"FROM pr JOIN " + b + " b ON " + joinConds(n, false),
				"FROM pr LEFT OUTER JOIN " + b + " b ON " + joinConds(n, false),
				"FROM pr LEFT OUTER JOIN " + b + " b ON " + joinConds(n, true),
			} {
				queries = append(queries, "SELECT pr.v, b.v, b.s, b.f "+from,
					"SELECT b.v, count(*), sum(pr.v) "+from+" GROUP BY b.v")
			}
		}
		for _, c := range []string{"s", "f", "bo"} { // one column at a time: the VARCHAR recode, both zeros, two values
			queries = append(queries, fmt.Sprintf("SELECT b.v, count(*), sum(pr.v) FROM pr, %s b WHERE pr.%[2]s = b.%[2]s GROUP BY b.v", b, c))
		}
		queries = append(queries,
			"SELECT pr.v, b.v FROM pr, "+b+" b WHERE pr.k5 = b.f AND pr.i = b.i",
			"SELECT pr.v, b.v FROM pr, "+b+" b WHERE (pr.k6 = b.f OR (pr.k6 IS NULL AND b.f IS NULL)) AND pr.s = b.s",
			"SELECT pr.v, b.v FROM pr LEFT OUTER JOIN "+b+" b ON pr.f = b.k7 AND pr.i = b.i")
	}
	for _, write := range []string{
		"",
		"INSERT INTO bs VALUES (90, 's3', 0, true, 0, 1, 2, 0, 1, 900), (NULL, NULL, NULL, NULL, 2, 2, 2, 2, 2, 901), (3, 's4', 1.5, false, 9, 9, 9, 9, 9, 902)",
		"UPDATE bs SET i = i + 1, s = 's7' WHERE k5 = 1",
	} {
		if write != "" {
			exec(write)
		}
		for _, sql := range queries {
			if err := CompareBatch(p, sql, core.Options{}, difftest.Parallelisms); err != nil {
				t.Errorf("after %q: %v", write, err)
			}
		}
	}
}
