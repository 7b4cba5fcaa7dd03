// Package workload generates the synthetic data sets of both evaluations.
//
// The primary paper (Section 4): table employee with n=1M rows and
// dimensions gender(2), marstatus(4), educat(5), age(100); table sales with
// n=10M rows and dimensions transactionId(n), itemId(1000), dweek(7),
// monthNo(12), store(100), city(20), state(5), dept(100). Every dimension
// is uniformly distributed.
//
// The companion paper (Section 4.1): table transactionLine with
// deptId(10), subdeptId(100), itemId(1000), yearNo(4), monthNo(12),
// dayOfWeekNo(7), regionId(4), stateId(10), cityId(20), storeId(30) at
// n=1M and n=2M; and the UCI US-Census real data set (200k rows, mixed
// cardinalities, skewed), which is proprietary-by-availability here and is
// substituted by a synthetic table with the same named columns, comparable
// cardinalities and Zipf-skewed distributions (see DESIGN.md).
//
// Generators write through the storage layer directly (no SQL round trip)
// and are deterministic for a given seed.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/storage"
	"repro/internal/value"
)

// Cardinalities configures dimension cardinalities, defaulting to the
// paper's. Benchmarks may scale the pathological ones down to keep default
// runs short; the -full flag restores paper values.
type Cardinalities struct {
	// sales
	ItemID, Dweek, MonthNo, Store, City, State, Dept int
	// transactionLine
	TLDept, TLSubdept, TLItem, TLYear, TLMonth, TLDow, TLRegion, TLState, TLCity, TLStore int
}

// PaperCardinalities returns the exact cardinalities of both papers.
func PaperCardinalities() Cardinalities {
	return Cardinalities{
		ItemID: 1000, Dweek: 7, MonthNo: 12, Store: 100, City: 20, State: 5, Dept: 100,
		TLDept: 10, TLSubdept: 100, TLItem: 1000, TLYear: 4, TLMonth: 12, TLDow: 7,
		TLRegion: 4, TLState: 10, TLCity: 20, TLStore: 30,
	}
}

// LoadEmployee creates and fills the employee table: RID, gender(2),
// marstatus(4), educat(5), age(100) and a salary measure.
func LoadEmployee(cat *storage.Catalog, name string, n int, seed int64) (*storage.Table, error) {
	t, err := cat.Create(name, storage.Schema{
		{Name: "RID", Type: storage.TypeInt},
		{Name: "gender", Type: storage.TypeInt},
		{Name: "marstatus", Type: storage.TypeInt},
		{Name: "educat", Type: storage.TypeInt},
		{Name: "age", Type: storage.TypeInt},
		{Name: "salary", Type: storage.TypeInt},
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	row := make([]value.Value, 6)
	for i := 0; i < n; i++ {
		row[0] = value.NewInt(int64(i + 1))
		row[1] = value.NewInt(int64(rng.Intn(2)))
		row[2] = value.NewInt(int64(rng.Intn(4)))
		row[3] = value.NewInt(int64(rng.Intn(5)))
		row[4] = value.NewInt(int64(rng.Intn(100)))
		row[5] = value.NewInt(int64(20000 + rng.Intn(80000)))
		if _, err := t.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// LoadSales creates and fills the sales table of the primary paper:
// transactionId(n), itemId, dweek, monthNo, store, city, state, dept and a
// salesAmt measure, all dimensions uniform.
func LoadSales(cat *storage.Catalog, name string, n int, card Cardinalities, seed int64) (*storage.Table, error) {
	t, err := cat.Create(name, storage.Schema{
		{Name: "transactionId", Type: storage.TypeInt},
		{Name: "itemId", Type: storage.TypeInt},
		{Name: "dweek", Type: storage.TypeInt},
		{Name: "monthNo", Type: storage.TypeInt},
		{Name: "store", Type: storage.TypeInt},
		{Name: "city", Type: storage.TypeInt},
		{Name: "state", Type: storage.TypeInt},
		{Name: "dept", Type: storage.TypeInt},
		{Name: "salesAmt", Type: storage.TypeInt},
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	row := make([]value.Value, 9)
	for i := 0; i < n; i++ {
		row[0] = value.NewInt(int64(i + 1))
		row[1] = value.NewInt(int64(rng.Intn(card.ItemID)))
		row[2] = value.NewInt(int64(rng.Intn(card.Dweek)))
		row[3] = value.NewInt(int64(rng.Intn(card.MonthNo)))
		row[4] = value.NewInt(int64(rng.Intn(card.Store)))
		row[5] = value.NewInt(int64(rng.Intn(card.City)))
		row[6] = value.NewInt(int64(rng.Intn(card.State)))
		row[7] = value.NewInt(int64(rng.Intn(card.Dept)))
		row[8] = value.NewInt(int64(1 + rng.Intn(500)))
		if _, err := t.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// LoadTransactionLine creates and fills the companion paper's
// transactionLine table with its ten dimensions and three measures
// (itemQty, costAmt, salesAmt).
func LoadTransactionLine(cat *storage.Catalog, name string, n int, card Cardinalities, seed int64) (*storage.Table, error) {
	t, err := cat.Create(name, storage.Schema{
		{Name: "transactionId", Type: storage.TypeInt},
		{Name: "deptId", Type: storage.TypeInt},
		{Name: "subdeptId", Type: storage.TypeInt},
		{Name: "itemId", Type: storage.TypeInt},
		{Name: "yearNo", Type: storage.TypeInt},
		{Name: "monthNo", Type: storage.TypeInt},
		{Name: "dayOfWeekNo", Type: storage.TypeInt},
		{Name: "regionId", Type: storage.TypeInt},
		{Name: "stateId", Type: storage.TypeInt},
		{Name: "cityId", Type: storage.TypeInt},
		{Name: "storeId", Type: storage.TypeInt},
		{Name: "itemQty", Type: storage.TypeInt},
		{Name: "costAmt", Type: storage.TypeFloat},
		{Name: "salesAmt", Type: storage.TypeInt},
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	row := make([]value.Value, 14)
	for i := 0; i < n; i++ {
		qty := 1 + rng.Intn(9)
		cost := float64(rng.Intn(10000)) / 100
		row[0] = value.NewInt(int64(i + 1))
		row[1] = value.NewInt(int64(rng.Intn(card.TLDept)))
		row[2] = value.NewInt(int64(rng.Intn(card.TLSubdept)))
		row[3] = value.NewInt(int64(rng.Intn(card.TLItem)))
		row[4] = value.NewInt(int64(rng.Intn(card.TLYear)))
		row[5] = value.NewInt(int64(1 + rng.Intn(card.TLMonth)))
		row[6] = value.NewInt(int64(1 + rng.Intn(card.TLDow)))
		row[7] = value.NewInt(int64(rng.Intn(card.TLRegion)))
		row[8] = value.NewInt(int64(rng.Intn(card.TLState)))
		row[9] = value.NewInt(int64(rng.Intn(card.TLCity)))
		row[10] = value.NewInt(int64(rng.Intn(card.TLStore)))
		row[11] = value.NewInt(int64(qty))
		row[12] = value.NewFloat(cost)
		row[13] = value.NewInt(int64(float64(qty) * cost * 1.3))
		if _, err := t.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// LoadCensus creates the synthetic stand-in for the UCI US-Census data set:
// the named columns the companion paper groups by (iSchool, iClass,
// iMarital, dAge, iSex), Zipf-skewed like real census categoricals, plus an
// income measure. The real set has 68 columns; the extra width does not
// affect the benchmarked code path (columnar storage scans only referenced
// columns), so only the referenced columns plus a few fillers are
// generated.
func LoadCensus(cat *storage.Catalog, name string, n int, seed int64) (*storage.Table, error) {
	t, err := cat.Create(name, storage.Schema{
		{Name: "RID", Type: storage.TypeInt},
		{Name: "dAge", Type: storage.TypeInt},     // ~91 values, skewed
		{Name: "iSchool", Type: storage.TypeInt},  // 9 values, skewed
		{Name: "iClass", Type: storage.TypeInt},   // 9 values, skewed
		{Name: "iMarital", Type: storage.TypeInt}, // 6 values, skewed
		{Name: "iSex", Type: storage.TypeInt},     // 2 values
		{Name: "dIncome", Type: storage.TypeInt},
		{Name: "filler1", Type: storage.TypeInt},
		{Name: "filler2", Type: storage.TypeInt},
		{Name: "filler3", Type: storage.TypeInt},
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	zAge := rand.NewZipf(rng, 1.2, 8, 90)
	zSchool := rand.NewZipf(rng, 1.3, 2, 8)
	zClass := rand.NewZipf(rng, 1.3, 2, 8)
	zMarital := rand.NewZipf(rng, 1.4, 2, 5)
	row := make([]value.Value, 10)
	for i := 0; i < n; i++ {
		row[0] = value.NewInt(int64(i + 1))
		row[1] = value.NewInt(int64(zAge.Uint64()))
		row[2] = value.NewInt(int64(zSchool.Uint64()))
		row[3] = value.NewInt(int64(zClass.Uint64()))
		row[4] = value.NewInt(int64(zMarital.Uint64()))
		row[5] = value.NewInt(int64(rng.Intn(2)))
		row[6] = value.NewInt(int64(rng.Intn(100000)))
		row[7] = value.NewInt(int64(rng.Intn(1000)))
		row[8] = value.NewInt(int64(rng.Intn(1000)))
		row[9] = value.NewInt(int64(rng.Intn(1000)))
		if _, err := t.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// paperSales loads the ten-row example fact table of the primary paper's
// Table 1 (states, cities, sales amounts), used by examples and tests.
func paperSales(cat *storage.Catalog, name string) (*storage.Table, error) {
	t, err := cat.Create(name, storage.Schema{
		{Name: "RID", Type: storage.TypeInt},
		{Name: "state", Type: storage.TypeString},
		{Name: "city", Type: storage.TypeString},
		{Name: "salesAmt", Type: storage.TypeInt},
	})
	if err != nil {
		return nil, err
	}
	rows := []struct {
		state, city string
		amt         int64
	}{
		{"CA", "San Francisco", 13}, {"CA", "San Francisco", 3},
		{"CA", "San Francisco", 67}, {"CA", "Los Angeles", 23},
		{"TX", "Houston", 5}, {"TX", "Houston", 35},
		{"TX", "Houston", 10}, {"TX", "Houston", 14},
		{"TX", "Dallas", 53}, {"TX", "Dallas", 32},
	}
	for i, r := range rows {
		_, err := t.AppendRow([]value.Value{
			value.NewInt(int64(i + 1)), value.NewString(r.state),
			value.NewString(r.city), value.NewInt(r.amt),
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// describe summarizes a loaded table for logs.
func describe(t *storage.Table) string {
	return fmt.Sprintf("%s: %d rows, %d columns", t.Name(), t.NumRows(), t.NumCols())
}
