package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/storage"
	"repro/internal/value"
)

// The benchmark owns its data generator: product edits to internal/workload
// cannot change the inputs. Every table is kept twice — once in the engine
// (written through storage.Table.AppendRow) and once here, column-major, as
// the rows the oracle computes expected results from.

type colKind uint8

const (
	kInt colKind = iota
	kFloat
	kStr
)

// column is one generated column. null is nil when the column has no NULLs.
type column struct {
	name string
	kind colKind
	ints []int64
	flts []float64
	strs []string
	null []bool
}

func (c *column) isNull(r int) bool { return c.null != nil && c.null[r] }

// table is the benchmark-side copy of one relation.
type table struct {
	name string
	cols []*column
	n    int
}

func (t *table) col(name string) *column {
	for _, c := range t.cols {
		if c.name == name {
			return c
		}
	}
	panic("benchmark: table " + t.name + " has no column " + name)
}

// appendInts appends one all-INTEGER row (the only shape the write workloads
// insert), keeping the oracle's copy in step with the engine's.
func (t *table) appendInts(vals ...int64) {
	for i, c := range t.cols {
		c.ints = append(c.ints, vals[i])
	}
	t.n++
}

func intCols(names ...string) []*column {
	cols := make([]*column, len(names))
	for i, n := range names {
		cols[i] = &column{name: n, kind: kInt}
	}
	return cols
}

// genEmployee is the paper's employee table: gender(2), marstatus(4),
// educat(5), age(100), all uniform, and a salary measure.
func genEmployee(name string, n int, seed int64) *table {
	t := &table{name: name, cols: intCols("RID", "gender", "marstatus", "educat", "age", "salary")}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		t.appendInts(int64(i+1), int64(rng.Intn(2)), int64(rng.Intn(4)), int64(rng.Intn(5)),
			int64(rng.Intn(100)), int64(20000+rng.Intn(80000)))
	}
	return t
}

// Cardinalities of the sales dimensions (the repo's medium scale).
const (
	cardItem  = 1000
	cardDweek = 7
	cardMonth = 12
	cardStore = 10
	cardCity  = 20
	cardState = 5
	cardDept  = 50
)

var salesCols = []string{"transactionId", "itemId", "dweek", "monthNo", "store", "city", "state", "dept", "salesAmt"}

// salesRow draws one sales row; the write workloads use it for appends too.
func salesRow(rng *rand.Rand, id int64) []int64 {
	return []int64{id, int64(rng.Intn(cardItem)), int64(rng.Intn(cardDweek)), int64(rng.Intn(cardMonth)),
		int64(rng.Intn(cardStore)), int64(rng.Intn(cardCity)), int64(rng.Intn(cardState)),
		int64(rng.Intn(cardDept)), int64(1 + rng.Intn(500))}
}

func genSales(name string, n int, seed int64) *table {
	t := &table{name: name, cols: intCols(salesCols...)}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		t.appendInts(salesRow(rng, int64(i+1))...)
	}
	return t
}

// genRegions is the only data that reaches the string-key fold, float sums
// and NULL group keys: VARCHAR state(50)/city(400)/dweek(7), Zipf-skewed,
// every city inside one state, 2 % NULL city, FLOAT amount.
func genRegions(name string, n int, seed int64) *table {
	const states, cities = 50, 400
	rid := &column{name: "rid", kind: kInt}
	state := &column{name: "state", kind: kStr}
	city := &column{name: "city", kind: kStr, null: make([]bool, 0, n)}
	dweek := &column{name: "dweek", kind: kStr}
	amount := &column{name: "amount", kind: kFloat}
	rng := rand.New(rand.NewSource(seed))
	zCity := rand.NewZipf(rng, 1.1, 4, cities-1)
	zState := rand.NewZipf(rng, 1.2, 2, states-1)
	days := []string{"Mo", "Tu", "We", "Th", "Fr", "Sa", "Su"}
	for i := 0; i < n; i++ {
		rid.ints = append(rid.ints, int64(i+1))
		if rng.Intn(50) == 0 {
			city.strs = append(city.strs, "")
			city.null = append(city.null, true)
			state.strs = append(state.strs, "S"+strconv.Itoa(int(zState.Uint64())))
		} else {
			c := int(zCity.Uint64())
			city.strs = append(city.strs, "C"+strconv.Itoa(c))
			city.null = append(city.null, false)
			state.strs = append(state.strs, "S"+strconv.Itoa(c%states))
		}
		dweek.strs = append(dweek.strs, days[rng.Intn(len(days))])
		amount.flts = append(amount.flts, float64(1+rng.Intn(100000))/100)
	}
	return &table{name: name, cols: []*column{rid, state, city, dweek, amount}, n: n}
}

// genEvents is the empty append-only table serve_mix's etl tenant fills.
func genEvents(name string) *table {
	return &table{name: name, cols: intCols("id", "kind", "amt")}
}

// Demo tables: the paper's Table 1 sales rows and the companion stores ×
// weekdays table, the tiny relations a wire client's smallest queries hit.
func genDemoSales(name string) *table {
	rows := []struct {
		state, city string
		amt         int64
	}{
		{"CA", "San Francisco", 13}, {"CA", "San Francisco", 3}, {"CA", "San Francisco", 67},
		{"CA", "Los Angeles", 23}, {"TX", "Houston", 5}, {"TX", "Houston", 35},
		{"TX", "Houston", 10}, {"TX", "Houston", 14}, {"TX", "Dallas", 53}, {"TX", "Dallas", 32},
	}
	rid := &column{name: "RID", kind: kInt}
	state := &column{name: "state", kind: kStr}
	city := &column{name: "city", kind: kStr}
	amt := &column{name: "salesAmt", kind: kInt}
	for i, r := range rows {
		rid.ints = append(rid.ints, int64(i+1))
		state.strs = append(state.strs, r.state)
		city.strs = append(city.strs, r.city)
		amt.ints = append(amt.ints, r.amt)
	}
	return &table{name: name, cols: []*column{rid, state, city, amt}, n: len(rows)}
}

func genDaily(name string) *table {
	rows := []struct {
		store int64
		day   string
		amt   int64
	}{
		{2, "Mo", 7}, {2, "Tu", 6}, {2, "We", 8}, {2, "Th", 9}, {2, "Fr", 16}, {2, "Sa", 24}, {2, "Su", 30},
		{4, "Tu", 9}, {4, "We", 9}, {4, "Th", 9}, {4, "Fr", 18}, {4, "Sa", 20}, {4, "Su", 35},
	}
	store := &column{name: "store", kind: kInt}
	day := &column{name: "dweek", kind: kStr}
	amt := &column{name: "salesAmt", kind: kInt}
	for _, r := range rows {
		store.ints = append(store.ints, r.store)
		day.strs = append(day.strs, r.day)
		amt.ints = append(amt.ints, r.amt)
	}
	return &table{name: name, cols: []*column{store, day, amt}, n: len(rows)}
}

// load writes the table into the catalog through storage.Table.AppendRow and
// returns the time the appends took (storage.append_ns_per_row's numerator).
func (t *table) load(cat *storage.Catalog) (time.Duration, error) {
	schema := make(storage.Schema, len(t.cols))
	for i, c := range t.cols {
		typ := storage.TypeInt
		switch c.kind {
		case kFloat:
			typ = storage.TypeFloat
		case kStr:
			typ = storage.TypeString
		}
		schema[i] = storage.ColumnDef{Name: c.name, Type: typ}
	}
	st, err := cat.Create(t.name, schema)
	if err != nil {
		return 0, fmt.Errorf("create %s: %w", t.name, err)
	}
	row := make([]value.Value, len(t.cols))
	start := time.Now()
	for r := 0; r < t.n; r++ {
		for i, c := range t.cols {
			switch {
			case c.isNull(r):
				row[i] = value.Null
			case c.kind == kInt:
				row[i] = value.NewInt(c.ints[r])
			case c.kind == kFloat:
				row[i] = value.NewFloat(c.flts[r])
			default:
				row[i] = value.NewString(c.strs[r])
			}
		}
		if _, err := st.AppendRow(row); err != nil {
			return 0, fmt.Errorf("load %s row %d: %w", t.name, r, err)
		}
	}
	return time.Since(start), nil
}

// checksum folds every generated cell into one FNV-1a hash, reported as
// data.checksum: two runs with one seed must print the same value.
func checksum(tables []*table) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, t := range tables {
		h.Write([]byte(t.name))
		for _, c := range t.cols {
			for r := 0; r < t.n; r++ {
				switch {
				case c.isNull(r):
					put(^uint64(0))
				case c.kind == kInt:
					put(uint64(c.ints[r]))
				case c.kind == kFloat:
					put(math.Float64bits(c.flts[r]))
				default:
					h.Write([]byte(c.strs[r]))
				}
			}
		}
	}
	return h.Sum64()
}
