package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/diag"
	"repro/internal/storage"
	"repro/internal/value"
)

// TestRealZeroKeysAgreeWithEquality: 0.0 = -0.0 is true, so every operator
// that buckets by the key encoding — GROUP BY, DISTINCT, count(DISTINCT), the
// hash join ad hoc and through an index — must put the two zeros in one
// bucket, as the filter does, in both fold implementations at P 1 and 2. The
// group's displayed key is its first-appearance value.
func TestRealZeroKeysAgreeWithEquality(t *testing.T) {
	negZero := value.NewFloat(math.Copysign(0, -1))
	for _, negFirst := range []bool{false, true} {
		e := New(storage.NewCatalog())
		mustExec(t, e, "CREATE TABLE z (k REAL, v INTEGER); CREATE TABLE zi (k REAL, v INTEGER); CREATE INDEX zi_k ON zi (k)")
		zeros := []value.Value{value.NewFloat(0), negZero}
		if negFirst {
			zeros[0], zeros[1] = zeros[1], zeros[0]
		}
		for _, name := range []string{"z", "zi"} {
			tab, _ := e.Catalog().Get(name)
			for i, k := range []value.Value{zeros[0], zeros[1], value.Null, value.NewFloat(1.5)} {
				if _, err := tab.AppendRow([]value.Value{k, value.NewInt(1 << i)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		cases := []struct {
			sql  string
			want string // rows rendered "a b|c d", REAL zeros as +0 / -0
		}{
			{"SELECT count(*), sum(v) FROM z WHERE k = 0.0", "2 3"},
			{"SELECT k, sum(v), count(*) FROM z GROUP BY k", "Z 3 2|NULL 4 1|1.5 8 1"},
			{"SELECT DISTINCT k FROM z", "Z|NULL|1.5"},
			{"SELECT count(DISTINCT k) FROM z", "2"},
			{"SELECT count(*), sum(x.v + y.v) FROM z x, z y WHERE x.k = y.k", "5 28"},
			{"SELECT count(*), sum(x.v + y.v) FROM z x, zi y WHERE x.k = y.k", "5 28"},
		}
		for _, c := range cases {
			for _, batch := range []bool{true, false} {
				for _, p := range []int{1, 2} {
					UseReference(e, !batch)
					res, err := e.ExecSQLCtxP(context.Background(), c.sql, p)
					if err != nil {
						t.Fatalf("%s: %v", c.sql, err)
					}
					got := ""
					for ri, row := range res.Rows {
						if ri > 0 {
							got += "|"
						}
						for ci, v := range row {
							if ci > 0 {
								got += " "
							}
							if v.Kind() == value.KindFloat && v.Float() == 0 { // floateq:ok exactly the zeros
								got += map[bool]string{false: "+0", true: "-0"}[math.Signbit(v.Float())]
							} else {
								got += v.String()
							}
						}
					}
					want := ""
					for _, ch := range c.want {
						if ch == 'Z' { // the zero group shows its first row's zero
							want += map[bool]string{false: "+0", true: "-0"}[negFirst]
						} else {
							want += string(ch)
						}
					}
					if got != want {
						t.Errorf("negFirst=%v batch=%v P=%d: %s = %q, want %q", negFirst, batch, p, c.sql, got, want)
					}
				}
			}
		}
	}
}

// fuzzKey is one key for either route of a groupTable.
type fuzzKey struct {
	ints  []int64
	mask  uint8
	bytes []byte
}

func (k fuzzKey) lookup(t *groupTable, insert bool) (int32, bool) {
	if t.width > 0 {
		return t.lookupKey(k.ints, k.mask, insert)
	}
	return t.lookupBytes(t.hashBytes(k.bytes), k.bytes, insert)
}

func (k fuzzKey) String() string { return fmt.Sprint(k.ints, k.mask, k.bytes) }

// fuzzKeys draws n keys, repeats included, that stress what a probe must
// tell apart. Fixed-width tuples take their components from a palette of
// extremes, values that differ only above bit 32, and 0 beside NULL in every
// mask position (a NULL is stored as 0 with its mask bit set). Byte keys
// share a long prefix and differ in a short tail, or in length alone.
func fuzzKeys(rng *rand.Rand, width, n int) []fuzzKey {
	palette := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 1 << 32, 1 << 33, 1<<32 + 1, 7 << 40, 1 << 62}
	prefix := bytes.Repeat([]byte("shared-prefix/"), 6)
	keys := make([]fuzzKey, n)
	for i := range keys {
		if width == 0 {
			k := append([]byte(nil), prefix[:len(prefix)-rng.Intn(3)]...)
			for j := rng.Intn(3); j > 0; j-- {
				k = append(k, byte(rng.Intn(12)))
			}
			keys[i].bytes = k
			continue
		}
		keys[i].ints = make([]int64, width)
		for c := range keys[i].ints {
			switch v := rng.Intn(len(palette) + 8); {
			case v == len(palette):
				keys[i].mask |= 1 << c // NULL: 0 under a mask bit
			case v < len(palette):
				keys[i].ints[c] = palette[v]
			default:
				keys[i].ints[c] = int64(rng.Intn(6))
			}
		}
	}
	return keys
}

// fuzzBounds draws a direct-route layout over width components: each takes
// 0 to 4 values from a low end in [-100, 100), so negative ranges and
// all-NULL components (no values) occur, and the directory stays below 5^8
// cells. fuzzBoundedKeys draws n keys within it, NULL one component in five.
func fuzzBounds(t *testing.T, rng *rand.Rand, width int) (b bounds, lo, hi []int64) {
	lo, hi = make([]int64, width), make([]int64, width)
	for c := range lo {
		lo[c] = int64(rng.Intn(200) - 100)
		hi[c] = lo[c] + int64(rng.Intn(5)) - 1
	}
	b, ok := planBounds(lo, hi, 1<<20)
	if !ok {
		t.Fatalf("bounds %v..%v do not fit a directory", lo, hi)
	}
	return b, lo, hi
}

func fuzzBoundedKeys(rng *rand.Rand, lo, hi []int64, n int) []fuzzKey {
	keys := make([]fuzzKey, n)
	for i := range keys {
		keys[i].ints = make([]int64, len(lo))
		for c := range lo {
			if hi[c] < lo[c] || rng.Intn(5) == 0 {
				keys[i].mask |= 1 << c
			} else {
				keys[i].ints[c] = lo[c] + rng.Int63n(hi[c]-lo[c]+1)
			}
		}
	}
	return keys
}

// checkIDs runs keys through a table from newTable against a Go map: ids are
// dense and in first-appearance order whatever the growth, a find never
// inserts, and merging two tables the way foldPart.absorb does
// (groupTable.lookupFrom) numbers the keys exactly as one table over the
// concatenated input. It returns the one table and the map.
func checkIDs(t *testing.T, rng *rand.Rand, keys []fuzzKey, newTable func() *groupTable) (*groupTable, map[string]int32) {
	t.Helper()
	one, oracle := newTable(), map[string]int32{}
	for i, k := range keys {
		want, seen := oracle[k.String()]
		if !seen {
			want = int32(len(oracle))
			oracle[k.String()] = want
		}
		before := one.len()
		if id, _ := k.lookup(one, false); seen && id != want || !seen && id != -1 || one.len() != before {
			t.Fatalf("%s key %d %s: find = %d (want %d, seen %v), table %d → %d keys", one.route(), i, k, id, want, seen, before, one.len())
		}
		if id, fresh := k.lookup(one, true); id != want || fresh == seen {
			t.Fatalf("%s key %d %s: id %d fresh %v, want id %d fresh %v", one.route(), i, k, id, fresh, want, !seen)
		}
	}
	if one.len() != len(oracle) {
		t.Fatalf("%s: %d ids for %d distinct keys", one.route(), one.len(), len(oracle))
	}

	// Two partitions, merged: the lower table keeps its ids, the higher
	// one's new keys append in its order.
	cut := rng.Intn(len(keys))
	lo, hi := newTable(), newTable()
	for _, k := range keys[:cut] {
		k.lookup(lo, true)
	}
	for _, k := range keys[cut:] {
		k.lookup(hi, true)
	}
	checkMerge(t, lo, hi, keys, oracle)
	return one, oracle
}

// checkMerge merges hi into lo and checks that every key has its id in the
// one table over all of keys.
func checkMerge(t *testing.T, lo, hi *groupTable, keys []fuzzKey, oracle map[string]int32) {
	t.Helper()
	for g := 0; g < hi.len(); g++ {
		lo.lookupFrom(hi, g)
	}
	if lo.len() != len(oracle) {
		t.Fatalf("%s: merged table has %d keys, one table over the concatenation %d", lo.route(), lo.len(), len(oracle))
	}
	for i, k := range keys {
		if id, _ := k.lookup(lo, false); id != oracle[k.String()] {
			t.Fatalf("%s key %d %s: merged id %d, single-table id %d", lo.route(), i, k, id, oracle[k.String()])
		}
	}
}

// checkDictKeys runs fixed-width keys of w dictionary-coded VARCHAR
// components — codes read off a table's columns, as the fold reads them —
// through checkIDs on the hash route and on the direct route its IntRange
// bounds lay out, and checks that the ids group the rows exactly as their
// strings do: NULL apart from the empty string, repeats together. Between
// rounds the dictionaries move the ways a table moves them: rows of new
// strings appended, an UPDATE (and its rollback), a DELETE that leaves
// strings no row has, and appends rolled back by TruncateTo.
func checkDictKeys(t *testing.T, rng *rand.Rand, w, count int) {
	t.Helper()
	sch := make(storage.Schema, w)
	for c := range sch {
		sch[c] = storage.ColumnDef{Name: fmt.Sprint("k", c), Type: storage.TypeString}
	}
	tab, err := storage.NewTable("k", sch)
	if err != nil {
		t.Fatal(err)
	}
	palette := []string{"", "a", "b", "ab", "a\x00", "é", "B"}
	cell := func() value.Value {
		switch v := rng.Intn(len(palette) + 3); {
		case v == len(palette):
			return value.Null
		case v > len(palette):
			return value.NewString(fmt.Sprint("new-", rng.Intn(12)))
		default:
			return value.NewString(palette[v])
		}
	}
	appendRows := func(n int) {
		row := make([]value.Value, w)
		for ; n > 0; n-- {
			for c := range row {
				row[c] = cell()
			}
			if _, err := tab.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendRows(count)
	for round := 0; round < 4; round++ {
		switch round {
		case 1:
			appendRows(count / 4)
			u := tab.BeginUpdate()
			for k := 0; k < count/8; k++ {
				if err := u.Set(rng.Intn(tab.NumRows()), rng.Intn(w), cell()); err != nil {
					t.Fatal(err)
				}
			}
			if rng.Intn(2) == 0 {
				u.Rollback()
			}
		case 2:
			var drop []int32
			for r := 0; r < tab.NumRows(); r++ {
				if rng.Intn(3) == 0 {
					drop = append(drop, int32(r))
				}
			}
			tab = tab.Without(drop)
		case 3:
			n := tab.NumRows()
			appendRows(count / 4)
			tab.TruncateTo(n)
		}
		keys, strs := make([]fuzzKey, tab.NumRows()), make([]string, tab.NumRows())
		lo, hi := make([]int64, w), make([]int64, w)
		for c := 0; c < w; c++ {
			col := tab.Column(c)
			var ok bool
			if lo[c], hi[c], ok = tab.IntRange(c); !ok {
				lo[c], hi[c] = 0, -1
			}
			for r := range keys {
				if c == 0 {
					keys[r].ints = make([]int64, w)
				}
				if col.Null(r) {
					keys[r].mask |= 1 << c
					strs[r] += "N|"
				} else {
					keys[r].ints[c] = int64(col.Codes[r])
					strs[r] += fmt.Sprintf("%q|", col.Value(r).Str())
				}
			}
		}
		if len(keys) == 0 {
			continue
		}
		routes := []func() *groupTable{func() *groupTable { return &groupTable{width: w} }}
		if b, ok := planBounds(lo, hi, 1<<20); ok { // too many cells for a wide key
			routes = append(routes, func() *groupTable { t := newGroupTable(w, &b); return &t })
		}
		for _, newTable := range routes {
			one, _ := checkIDs(t, rng, keys, newTable)
			byStr := map[string]int32{}
			for r, k := range keys {
				id, _ := k.lookup(one, false)
				if want, seen := byStr[strs[r]]; !seen {
					byStr[strs[r]] = id
				} else if id != want {
					t.Fatalf("round %d, %s route: row %d (%s) has id %d, an earlier row of its strings %d", round, one.route(), r, strs[r], id, want)
				}
			}
			if len(byStr) != one.len() {
				t.Fatalf("round %d, %s route: %d ids for %d distinct string tuples", round, one.route(), one.len(), len(byStr))
			}
		}
	}
}

// FuzzGroupTable checks both fixed-width routes and the byte route against a
// Go map (checkIDs). The hash route takes keys that stress a probe — the
// counts force at least four doublings of the index, and with every hash
// forced equal (the drop seam) the probe sequence and the key compare alone
// must still tell the keys apart. The direct route takes keys within random
// bounds, and then one outside them: a find of it is -1 and leaves the table
// direct, an insert moves the table to the hash route with every earlier id
// kept, and a direct partition absorbing a moved one follows it there. Bounds
// with an int64 extreme in one component never make a directory. Keys of
// dictionary-coded VARCHAR components take both routes too (checkDictKeys).
func FuzzGroupTable(f *testing.F) {
	f.Add(int64(1), uint16(400), uint8(0), false)
	f.Add(int64(2), uint16(900), uint8(1), false)
	f.Add(int64(3), uint16(2000), uint8(4), false)
	f.Add(int64(4), uint16(300), uint8(8), true)
	f.Add(int64(5), uint16(250), uint8(0), true)
	f.Add(int64(6), uint16(1500), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, width uint8, flat bool) {
		rng := rand.New(rand.NewSource(seed))
		w, count := int(width)%(maxIntKeys+1), 200+int(n)%3000
		if flat {
			count = 200 + int(n)%200 // every probe walks the whole chain
		}
		one, oracle := checkIDs(t, rng, fuzzKeys(rng, w, count), func() *groupTable {
			t := &groupTable{width: w}
			if flat {
				t.drop = ^uint32(0)
			}
			return t
		})
		if !flat && len(oracle) > 96 && len(one.slots) < 256 {
			t.Fatalf("%d keys in %d slots: the index did not double four times", len(oracle), len(one.slots))
		}
		if w == 0 {
			return
		}
		checkDictKeys(t, rng, w, count)

		b, lo, hi := fuzzBounds(t, rng, w)
		keys := fuzzBoundedKeys(rng, lo, hi, count)
		newDirect := func() *groupTable {
			t := newGroupTable(w, &b)
			return &t
		}
		one, oracle = checkIDs(t, rng, keys, newDirect)
		if one.route() != "direct" || len(one.slots)+len(one.hashes) > 0 {
			t.Fatalf("keys within bounds moved the table to the %s route (%d slots)", one.route(), len(one.slots))
		}

		// One component of a key outside its bounds.
		in := keys[rng.Intn(len(keys))]
		out := fuzzKey{ints: append([]int64(nil), in.ints...), mask: in.mask}
		c := rng.Intn(w)
		out.mask &^= 1 << c
		switch edge := rng.Intn(4); {
		case hi[c] < lo[c]:
			out.ints[c] = int64(rng.Intn(200) - 100) // any value: the component has none
		case edge == 0:
			out.ints[c] = hi[c] + 1
		case edge == 1:
			out.ints[c] = lo[c] - 1
		case edge == 2:
			out.ints[c] = math.MaxInt64
		default:
			out.ints[c] = math.MinInt64
		}
		if id, fresh := out.lookup(one, false); id != -1 || fresh || one.route() != "direct" {
			t.Fatalf("find of out-of-bounds key %s = %d (fresh %v) on the %s route, want -1 on the direct route", out, id, fresh, one.route())
		}
		if id, fresh := out.lookup(one, true); id != int32(len(oracle)) || !fresh || one.route() != "hash" {
			t.Fatalf("insert of out-of-bounds key %s = %d (fresh %v) on the %s route, want %d on the hash route", out, id, fresh, one.route(), len(oracle))
		}
		for i, k := range keys {
			if id, _ := k.lookup(one, false); id != oracle[k.String()] {
				t.Fatalf("key %d %s: id %d after the move, %d before", i, k, id, oracle[k.String()])
			}
		}
		// A direct partition absorbing one that moved: the moved one holds
		// the out-of-bounds key, so the merge moves the lower one too.
		cut := rng.Intn(len(keys))
		lower, upper := newDirect(), newDirect()
		for _, k := range keys[:cut] {
			k.lookup(lower, true)
		}
		for _, k := range append(keys[cut:len(keys):len(keys)], out) {
			k.lookup(upper, true)
		}
		oracle[out.String()] = int32(len(oracle))
		checkMerge(t, lower, upper, append(keys[:len(keys):len(keys)], out), oracle)
		if lower.route() != "hash" {
			t.Fatalf("absorbing an out-of-bounds key left the table on the %s route", lower.route())
		}

		// An int64 extreme at either end of one component's span is too wide
		// for any directory — the span would overflow — unless both ends sit at
		// it.
		elo, ehi := append([]int64(nil), lo...), append([]int64(nil), hi...)
		elo[c], ehi[c] = math.MinInt64, int64(rng.Intn(200))
		if rng.Intn(2) == 0 {
			elo[c], ehi[c] = int64(-rng.Intn(200)), math.MaxInt64
		}
		if _, ok := planBounds(elo, ehi, 1<<20); ok {
			t.Fatalf("bounds %v..%v made a directory", elo, ehi)
		}
		elo[c], ehi[c] = math.MaxInt64, math.MaxInt64
		if rng.Intn(2) == 0 {
			elo[c], ehi[c] = math.MinInt64, math.MinInt64
		}
		eb, ok := planBounds(elo, ehi, 1<<20)
		if !ok {
			t.Fatalf("bounds %v..%v made no directory", elo, ehi)
		}
		et := newGroupTable(w, &eb)
		k := fuzzKey{ints: make([]int64, w)}
		for j := range k.ints {
			if k.ints[j] = elo[j]; ehi[j] < elo[j] {
				k.ints[j], k.mask = 0, k.mask|1<<j
			}
		}
		if id, fresh := k.lookup(&et, true); id != 0 || !fresh || et.route() != "direct" {
			t.Fatalf("key %s at the int64 extreme = %d (fresh %v) on the %s route", k, id, fresh, et.route())
		}
		k.ints[c] ^= math.MinInt64 ^ math.MaxInt64 // the other extreme
		if id, _ := k.lookup(&et, false); id != -1 {
			t.Fatalf("key %s at the other int64 extreme found id %d", k, id)
		}
	})
}

// TestMaxGroupsTripsWhereTheReferenceDoes: the operator charges a group where
// its key first appears — in the id pass of a batch, before any kernel runs —
// so at one worker it must hit MaxGroups exactly when the row-at-a-time
// reference does: same PCT203, same limit, whether the fold runs column-major
// (bare keys), row-major (a computed key) or over the byte route, and it must
// pass at exactly the number of groups there are.
func TestMaxGroupsTripsWhereTheReferenceDoes(t *testing.T) {
	cat := storage.NewCatalog()
	tab, err := cat.Create("f", fuzzFoldSchema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		if _, err := tab.AppendRow(fuzzFoldRow(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	e := New(cat)
	for _, sql := range []string{
		"SELECT id, sum(a) FROM f GROUP BY id",
		"SELECT id + 0, sum(a) FROM f GROUP BY 1",
		"SELECT s, count(*) FROM f GROUP BY s",
		"SELECT DISTINCT id FROM f WHERE d2 = 1",
	} {
		groups := len(mustExec(t, e, sql).Rows)
		if groups < 1000 {
			t.Fatalf("%s: only %d groups", sql, groups)
		}
		for _, limit := range []int64{1, 1023, 1024, 1025, int64(groups) - 1, int64(groups), int64(groups) + 1} {
			ctx := WithLimits(context.Background(), Limits{MaxGroups: limit})
			UseReference(e, true)
			_, refErr := e.ExecSQLCtxP(ctx, sql, 1)
			UseReference(e, false)
			_, gotErr := e.ExecSQLCtxP(ctx, sql, 1)
			var le *LimitError
			if wantFail := limit < int64(groups); wantFail != (refErr != nil) || wantFail && (!errors.As(refErr, &le) || le.Code() != diag.CodeGroupLimit) {
				t.Fatalf("%s under MaxGroups %d (%d groups): reference err = %v", sql, limit, groups, refErr)
			}
			if (refErr == nil) != (gotErr == nil) || refErr != nil && refErr.Error() != gotErr.Error() {
				t.Errorf("%s under MaxGroups %d: operator err = %v, reference err = %v", sql, limit, gotErr, refErr)
			}
		}
	}
}
