package engine

import (
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

// fuzzKey is one key for a groupTable: its identity — equal ids, one group —
// and its slots and mask bytes, or, read through keys.go, a function that
// puts it in flight against the table's own dictionary.
type fuzzKey struct {
	id   string
	ints []int64
	mask []uint8
	read func(t *groupTable, insert bool) []int64
}

func (k fuzzKey) lookup(t *groupTable, insert bool) (int32, bool) {
	if k.read != nil {
		return t.lookupKey(k.read(t, insert), insert)
	}
	key := append([]int64(nil), k.ints...)
	for _, m := range k.mask {
		key = append(key, int64(m))
	}
	return t.lookupKey(key, insert)
}

func (k fuzzKey) String() string { return fmt.Sprint(k.ints, k.mask, k.id) }

// intKey is a raw key of INTEGER components: its values and NULL bits.
func intKey(ints []int64, mask uint8) fuzzKey {
	return fuzzKey{id: fmt.Sprint(ints, mask), ints: ints, mask: []uint8{mask}}
}

// intLayout lays out w INTEGER components.
func intLayout(w int) layout { return newKeyCols(make([]keyCol, w)).layout }

// fuzzKeys draws n raw keys of width components, repeats included, that
// stress what a probe must tell apart: components from a palette of
// extremes, values that differ only above bit 32, and 0 beside NULL in every
// mask position (a NULL is stored as 0 with its mask bit set).
func fuzzKeys(rng *rand.Rand, width, n int) []fuzzKey {
	palette := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 1 << 32, 1 << 33, 1<<32 + 1, 7 << 40, 1 << 62}
	keys := make([]fuzzKey, n)
	for i := range keys {
		ints, mask := make([]int64, width), uint8(0)
		for c := range ints {
			switch v := rng.Intn(len(palette) + 8); {
			case v == len(palette):
				mask |= 1 << c // NULL: 0 under a mask bit
			case v < len(palette):
				ints[c] = palette[v]
			default:
				ints[c] = int64(rng.Intn(6))
			}
		}
		keys[i] = intKey(ints, mask)
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
		ints, mask := make([]int64, len(lo)), uint8(0)
		for c := range lo {
			if hi[c] < lo[c] || rng.Intn(5) == 0 {
				mask |= 1 << c
			} else {
				ints[c] = lo[c] + rng.Int63n(hi[c]-lo[c]+1)
			}
		}
		keys[i] = intKey(ints, mask)
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
		want, seen := oracle[k.id]
		if !seen {
			want = int32(len(oracle))
			oracle[k.id] = want
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
		if id, _ := k.lookup(lo, false); id != oracle[k.id] {
			t.Fatalf("%s key %d %s: merged id %d, single-table id %d", lo.route(), i, k, id, oracle[k.id])
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
		ints, masks := make([][]int64, len(keys)), make([]uint8, len(keys))
		for c := 0; c < w; c++ {
			col := tab.Column(c)
			var ok bool
			if lo[c], hi[c], ok = tab.IntRange(c); !ok {
				lo[c], hi[c] = 0, -1
			}
			for r := range keys {
				if c == 0 {
					ints[r] = make([]int64, w)
				}
				if col.Null(r) {
					masks[r] |= 1 << c
					strs[r] += "N|"
				} else {
					ints[r][c] = int64(col.Codes[r])
					strs[r] += fmt.Sprintf("%q|", col.Value(r).Str())
				}
			}
		}
		for r := range keys {
			keys[r] = intKey(ints[r], masks[r])
		}
		if len(keys) == 0 {
			continue
		}
		routes := []func() *groupTable{func() *groupTable { t := newGroupTable(intLayout(w), &bounds{}, nil); return &t }}
		if b, ok := planBounds(lo, hi, 1<<20); ok { // too many cells for a wide key
			routes = append(routes, func() *groupTable { t := newGroupTable(intLayout(w), &b, nil); return &t })
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

// checkEncodedKeys runs keys of comps components, each of a random kind,
// encoded by the fold's own reader (keyCols.read) off the vectors that hold
// them — INTEGER, REAL (±0.0, NaNs of either sign, infinities), BOOLEAN and
// VARCHAR columns, and boxed columns of mixed kinds (1 beside 1.0, the empty
// string beside NULL, strings), whose values are coded — through checkIDs,
// with value.EncodeKey of a row's tuple as its identity: one id exactly where
// the oracle's encoding is one. Every table codes values into a dictionary of
// its own, so the merge recodes. The hash route always; the direct route too
// when every component is an INTEGER, BOOLEAN or VARCHAR column, at most
// maxIntKeys. Each key of the one table then shows its first row's values,
// kinds and signs: the display a group emits (keyCols.column).
func checkEncodedKeys(t *testing.T, rng *rand.Rand, comps, count int, flat bool) {
	t.Helper()
	negZero, otherNaN := math.Copysign(0, -1), math.Float64frombits(math.Float64bits(math.NaN())|1<<63)
	i, f, str := value.NewInt, value.NewFloat, value.NewString
	palettes := [][]value.Value{
		{i(0), i(1), i(-1), i(math.MinInt64), i(1 << 32), value.Null},
		{f(0), f(negZero), f(math.NaN()), f(otherNaN), f(1.5), f(-1.5), f(math.Inf(1)), value.Null},
		{value.NewBool(true), value.NewBool(false), value.Null},
		{str(""), str("a"), str("ab"), value.Null},
		{i(1), f(1), f(0), f(negZero), str(""), str("1"), value.NewBool(true), i(0), value.Null, f(math.NaN())},
	}
	types := []storage.ColumnType{storage.TypeInt, storage.TypeFloat, storage.TypeBool, storage.TypeString}
	vecs, rows := make([]storage.Vector, comps), make([][]value.Value, count)
	direct := comps <= maxIntKeys
	kinds := make([]int, comps)
	for c := range vecs {
		kinds[c] = rng.Intn(len(palettes))
		if kinds[c] < len(types) {
			vecs[c].Resize(types[kinds[c]], count)
		} else {
			vecs[c].ResizeBoxed(count)
		}
		direct = direct && kinds[c] != 1 && kinds[c] != 4
	}
	for r := range rows {
		rows[r] = make([]value.Value, comps)
		for c := range vecs {
			p := palettes[kinds[c]]
			v := p[rng.Intn(len(p))]
			if rows[r][c] = v; vecs[c].Boxed {
				vecs[c].Vals[r] = v
			} else {
				vecs[c].Set(r, v)
			}
		}
	}
	cols := make([]keyCol, comps)
	for c := range cols {
		cols[c].vec = vecs[c]
	}
	kc := newKeyCols(cols)
	keys := make([]fuzzKey, count)
	for r := range keys {
		keys[r] = fuzzKey{id: string(value.EncodeKey(rows[r]...)), read: func(tab *groupTable, insert bool) []int64 {
			key := make([]int64, kc.stride)
			for c := range vecs {
				kc.read(c, &vecs[c], []int32{int32(r)}, key, tab.dict, insert)
			}
			return key
		}}
	}
	routes := []func() *groupTable{func() *groupTable {
		tab := newGroupTable(kc.layout, &bounds{}, new(keyDict))
		if flat {
			tab.drop = ^uint32(0)
		}
		return &tab
	}}
	if direct {
		lo, hi := make([]int64, comps), make([]int64, comps)
		for c := range vecs {
			lo[c], hi[c] = 0, 1 // BOOLEAN
			switch vecs[c].Type {
			case storage.TypeString:
				hi[c] = int64(vecs[c].Dict.Len() - 1)
			case storage.TypeInt:
				lo[c] = -1 // MinInt64 and 1 << 32 lie outside: a key with one moves the table
			}
		}
		if b, ok := planBounds(lo, hi, 1<<20); ok {
			routes = append(routes, func() *groupTable { tab := newGroupTable(kc.layout, &b, nil); return &tab })
		}
	}
	for _, newTable := range routes {
		one, oracle := checkIDs(t, rng, keys, newTable)
		first := make([]int, len(oracle))
		for r := len(keys) - 1; r >= 0; r-- {
			first[oracle[keys[r].id]] = r
		}
		for c := range vecs {
			var v storage.Vector
			kc.column(c, one, 0, one.len(), &v)
			if vecs[c].Boxed != v.Boxed {
				t.Fatalf("component %d: boxed %v, its column boxed %v", c, v.Boxed, vecs[c].Boxed)
			}
			for id, r := range first {
				got, want := v.Value(id), rows[r][c]
				if got.Kind() != want.Kind() || value.Compare(got, want) != 0 || want.Kind() == value.KindFloat && math.Signbit(got.Float()) != math.Signbit(want.Float()) {
					t.Fatalf("%s route: key %d component %d shows %v (%v), its first row %d %v (%v)", one.route(), id, c, got, got.Kind(), r, want, want.Kind())
				}
			}
		}
	}
}

// FuzzGroupTable checks both routes against a Go map (checkIDs). The hash
// route takes keys that stress a probe — the counts force at least four
// doublings of the index, and with every hash forced equal (the drop seam)
// the probe sequence and the key compare alone must still tell the keys
// apart. The direct route takes keys within random bounds, and then one
// outside them: a find of it is -1 and leaves the table direct, an insert
// moves the table to the hash route with every earlier id kept, and a direct
// partition absorbing a moved one follows it there. Bounds with an int64
// extreme in one component never make a directory. Keys of dictionary-coded
// VARCHAR components take both routes too (checkDictKeys), and so do keys of
// every component kind encoded by the fold's reader (checkEncodedKeys): of
// width components, or — width 0 — of 9 to 70, wider than a direct key.
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
		if w == 0 {
			checkEncodedKeys(t, rng, 9+rng.Intn(62), count, flat)
			return
		}
		checkEncodedKeys(t, rng, w, count, flat)
		one, oracle := checkIDs(t, rng, fuzzKeys(rng, w, count), func() *groupTable {
			t := newGroupTable(intLayout(w), &bounds{}, nil)
			if flat {
				t.drop = ^uint32(0)
			}
			return &t
		})
		if !flat && len(oracle) > 96 && len(one.slots) < 256 {
			t.Fatalf("%d keys in %d slots: the index did not double four times", len(oracle), len(one.slots))
		}
		checkDictKeys(t, rng, w, count)

		b, lo, hi := fuzzBounds(t, rng, w)
		keys := fuzzBoundedKeys(rng, lo, hi, count)
		newDirect := func() *groupTable {
			t := newGroupTable(intLayout(w), &b, nil)
			return &t
		}
		one, oracle = checkIDs(t, rng, keys, newDirect)
		if one.route() != "direct" || len(one.slots)+len(one.hashes) > 0 {
			t.Fatalf("keys within bounds moved the table to the %s route (%d slots)", one.route(), len(one.slots))
		}

		// One component of a key outside its bounds.
		in := keys[rng.Intn(len(keys))]
		ints, mask := append([]int64(nil), in.ints...), in.mask[0]
		c := rng.Intn(w)
		mask &^= 1 << c
		switch edge := rng.Intn(4); {
		case hi[c] < lo[c]:
			ints[c] = int64(rng.Intn(200) - 100) // any value: the component has none
		case edge == 0:
			ints[c] = hi[c] + 1
		case edge == 1:
			ints[c] = lo[c] - 1
		case edge == 2:
			ints[c] = math.MaxInt64
		default:
			ints[c] = math.MinInt64
		}
		out := intKey(ints, mask)
		if id, fresh := out.lookup(one, false); id != -1 || fresh || one.route() != "direct" {
			t.Fatalf("find of out-of-bounds key %s = %d (fresh %v) on the %s route, want -1 on the direct route", out, id, fresh, one.route())
		}
		if id, fresh := out.lookup(one, true); id != int32(len(oracle)) || !fresh || one.route() != "hash" {
			t.Fatalf("insert of out-of-bounds key %s = %d (fresh %v) on the %s route, want %d on the hash route", out, id, fresh, one.route(), len(oracle))
		}
		for i, k := range keys {
			if id, _ := k.lookup(one, false); id != oracle[k.id] {
				t.Fatalf("key %d %s: id %d after the move, %d before", i, k, id, oracle[k.id])
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
		oracle[out.id] = int32(len(oracle))
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
		et := newGroupTable(intLayout(w), &eb, nil)
		eints, emask := make([]int64, w), uint8(0)
		for j := range eints {
			if eints[j] = elo[j]; ehi[j] < elo[j] {
				eints[j], emask = 0, emask|1<<j
			}
		}
		if id, fresh := intKey(eints, emask).lookup(&et, true); id != 0 || !fresh || et.route() != "direct" {
			t.Fatalf("key %v at the int64 extreme = %d (fresh %v) on the %s route", eints, id, fresh, et.route())
		}
		eints[c] ^= math.MinInt64 ^ math.MaxInt64 // the other extreme
		if id, _ := intKey(eints, emask).lookup(&et, false); id != -1 {
			t.Fatalf("key %v at the other int64 extreme found id %d", eints, id)
		}
	})
}

// TestMaxGroupsTripsWhereTheReferenceDoes: the operator charges a group where
// its key first appears — in the id pass of a batch, before any kernel runs —
// so at one worker it must hit MaxGroups exactly when the row-at-a-time
// reference does: same PCT203, same limit, whether the fold runs column-major
// (bare keys: INTEGER values, a VARCHAR's codes) or row-major (a computed key,
// on the hash route), and it must pass at exactly the number of groups there
// are.
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
