package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

func TestNormalizeSQL(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT * FROM sales WHERE amt > 100", "SELECT * FROM sales WHERE amt > ?"},
		{"SELECT * FROM sales WHERE amt > 200", "SELECT * FROM sales WHERE amt > ?"},
		{"SELECT   *\n\tFROM sales", "SELECT * FROM sales"},
		{"SELECT 'CA', 1.5e-3, 42 FROM t", "SELECT ?, ?, ? FROM t"},
		{"SELECT 'it''s' FROM t", "SELECT ? FROM t"},
		// Digits inside identifiers survive; only literals normalize.
		{"SELECT a1 FROM trans1 WHERE x2 = 3", "SELECT a1 FROM trans1 WHERE x2 = ?"},
		// Planner temp names fold their sequence number.
		{"INSERT INTO pct_fk_17 SELECT state FROM sales", "INSERT INTO pct_fk_N SELECT state FROM sales"},
		{"DROP TABLE IF EXISTS pct_fv_203", "DROP TABLE IF EXISTS pct_fv_N"},
		// Near-miss shapes do not fold.
		{"SELECT * FROM foo_2020", "SELECT * FROM foo_2020"},
		{"SELECT * FROM pct_stat_statements", "SELECT * FROM pct_stat_statements"},
		{"SELECT * FROM pct_fk_1a", "SELECT * FROM pct_fk_1a"},
	}
	for _, c := range cases {
		if got := normalizeSQL(c.in); got != c.want {
			t.Errorf("normalizeSQL(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFingerprintStability(t *testing.T) {
	_, h1 := Fingerprint("SELECT * FROM sales WHERE amt > 100")
	_, h2 := Fingerprint("SELECT  *  FROM sales\nWHERE amt > 999")
	if h1 != h2 {
		t.Errorf("literal/whitespace variants fingerprint differently: %x vs %x", h1, h2)
	}
	_, h3 := Fingerprint("SELECT * FROM employee WHERE amt > 100")
	if h1 == h3 {
		t.Errorf("distinct statements share a fingerprint")
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if q := h.quantile(0.5); q != 0 {
		t.Errorf("empty histogram Quantile = %d, want 0", q)
	}
	// 1000 samples spread across one bucket: [2^10, 2^11).
	for i := 0; i < 1000; i++ {
		h.Observe(1024 + int64(i))
	}
	p50 := h.quantile(0.50)
	if p50 < 1024 || p50 >= 2048 {
		t.Errorf("p50 = %d, want within [1024,2048)", p50)
	}
	p99 := h.quantile(0.99)
	if p99 < p50 || p99 >= 2048 {
		t.Errorf("p99 = %d, want within [p50,2048)", p99)
	}
	// Quantiles are monotone in q.
	if h.quantile(0) > h.quantile(0.5) || h.quantile(0.5) > h.quantile(1) {
		t.Errorf("quantiles not monotone: q0=%d q50=%d q100=%d",
			h.quantile(0), h.quantile(0.5), h.quantile(1))
	}
	// A clearly bimodal distribution: p99 lands in the upper mode's bucket.
	var h2 Histogram
	for i := 0; i < 99; i++ {
		h2.Observe(2000) // bucket [1024, 2048)
	}
	h2.Observe(1 << 20) // bucket [2^19, 2^20)... upper mode
	if q := h2.quantile(0.5); q >= 2048 {
		t.Errorf("bimodal p50 = %d, want < 2048", q)
	}
	if q := h2.quantile(1); q < 1<<19 {
		t.Errorf("bimodal p100 = %d, want >= %d", q, 1<<19)
	}
}

func TestHistogramQuantileUnboundedBucket(t *testing.T) {
	var h Histogram
	h.Observe(1 << 40) // beyond the last bounded bucket
	want := bucketBound(histBuckets - 2)
	if q := h.quantile(0.99); q != want {
		t.Errorf("unbounded-bucket quantile = %d, want lower edge %d", q, want)
	}
}

func TestRegistryJSONFullBuckets(t *testing.T) {
	r := newRegistry()
	h := r.Histogram("test.hist")
	h.Observe(5000)
	js := r.JSON()
	// Every bucket must be present, including empties, keyed by its bound.
	for i := 0; i < histBuckets; i++ {
		key := fmt.Sprintf(`"%d":`, bucketBound(i))
		if bucketBound(i) < 0 {
			key = `"+inf":`
		}
		if !contains(js, key) {
			t.Errorf("JSON lacks bucket key %s:\n%s", key, js)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestStmtStatsObserve(t *testing.T) {
	s := NewStmtStats(0)
	norm, hash := Fingerprint("SELECT * FROM t WHERE x = 1")
	for i := 0; i < 5; i++ {
		s.Observe(StmtObservation{Hash: hash, Query: norm, Top: true,
			DurNs: int64(1000 * (i + 1)), Rows: 2, Scanned: 10})
	}
	s.Observe(StmtObservation{Hash: hash, Query: norm, Top: true,
		DurNs: 500, ErrCode: "PCT200"})
	// Same hash, statement level: a separate entry.
	s.Observe(StmtObservation{Hash: hash, Query: norm, Top: false, DurNs: 100})

	snaps := s.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("got %d entries, want 2 (top and statement level)", len(snaps))
	}
	var top, stmtLevel *StmtSnapshot
	for i := range snaps {
		if snaps[i].Top {
			top = &snaps[i]
		} else {
			stmtLevel = &snaps[i]
		}
	}
	if top == nil || stmtLevel == nil {
		t.Fatalf("missing top or statement-level entry: %+v", snaps)
	}
	if top.Calls != 6 || top.Errors != 1 || top.ErrCodes["PCT200"] != 1 {
		t.Errorf("top entry calls=%d errors=%d codes=%v, want 6/1/{PCT200:1}", top.Calls, top.Errors, top.ErrCodes)
	}
	if top.MinNs != 500 || top.MaxNs != 5000 {
		t.Errorf("min/max = %d/%d, want 500/5000", top.MinNs, top.MaxNs)
	}
	if top.Rows != 10 || top.RowsScanned != 50 {
		t.Errorf("rows=%d scanned=%d, want 10/50", top.Rows, top.RowsScanned)
	}
	if stmtLevel.Calls != 1 {
		t.Errorf("statement-level calls = %d, want 1", stmtLevel.Calls)
	}
}

func TestStmtStatsBounded(t *testing.T) {
	s := NewStmtStats(3)
	for i := 0; i < 10; i++ {
		s.Observe(StmtObservation{Hash: uint64(i), Query: "q", DurNs: 1})
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want cap 3", s.Len())
	}
	if s.Dropped() != 7 {
		t.Errorf("Dropped = %d, want 7", s.Dropped())
	}
	s.Reset()
	if s.Len() != 0 || s.Dropped() != 0 {
		t.Errorf("Reset left Len=%d Dropped=%d", s.Len(), s.Dropped())
	}
}

func TestActivityRegistry(t *testing.T) {
	a := NewActivity()
	var scanned int64 = 42
	a.Begin(1, "SELECT ?", 7, time.Now().Add(-time.Second), func() (int64, int64, int64) {
		return scanned, 5, 100
	})
	a.Begin(2, "SELECT ?", 8, time.Now(), nil)
	snap := a.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("got %d active, want 2", len(snap))
	}
	if snap[0].ID != 1 || snap[1].ID != 2 {
		t.Errorf("snapshot not ordered by id: %+v", snap)
	}
	if snap[0].Scanned != 42 || snap[0].Rows != 5 || snap[0].Bytes != 100 {
		t.Errorf("progress = %d/%d/%d, want 42/5/100", snap[0].Scanned, snap[0].Rows, snap[0].Bytes)
	}
	if snap[0].ElapsedNs < int64(500*time.Millisecond) {
		t.Errorf("elapsed = %d, want >= 0.5s", snap[0].ElapsedNs)
	}
	if snap[0].State != "running" {
		t.Errorf("state = %q, want running", snap[0].State)
	}
	a.End(1)
	a.End(2)
	if n := len(a.Snapshot()); n != 0 {
		t.Errorf("%d statements active after End, want 0", n)
	}
}

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		f.Record(FlightRecord{Fingerprint: uint64(i)})
	}
	snap := f.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("got %d records, want ring size 4", len(snap))
	}
	for i, rec := range snap {
		if want := int64(6 + i); rec.Seq != want {
			t.Errorf("record %d seq = %d, want %d (oldest-first)", i, rec.Seq, want)
		}
		if rec.Fingerprint != uint64(6+i) {
			t.Errorf("record %d fingerprint = %d, want %d", i, rec.Fingerprint, 6+i)
		}
	}
}

func TestFlightRecorderPartialRing(t *testing.T) {
	f := NewFlightRecorder(8)
	f.Record(FlightRecord{Query: "a"})
	f.Record(FlightRecord{Query: "b"})
	snap := f.Snapshot()
	if len(snap) != 2 || snap[0].Query != "a" || snap[1].Query != "b" {
		t.Errorf("partial ring snapshot wrong: %+v", snap)
	}
}

// TestFlightRecorderConcurrent hammers one recorder from many writers and
// readers under the race detector and the goroutine-leak check: sequence
// numbers must stay dense and snapshots consistent.
func TestFlightRecorderConcurrent(t *testing.T) {
	defer leakcheck.Check(t)()
	f := NewFlightRecorder(64)
	stats := NewStmtStats(128)
	act := NewActivity()
	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := int64(w*perWriter + i)
				act.Begin(id, "q", uint64(w), time.Now(), nil)
				stats.Observe(StmtObservation{Hash: uint64(w), Query: "q", DurNs: int64(i)})
				f.Record(FlightRecord{Fingerprint: uint64(w), Query: "q"})
				act.End(id)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = f.Snapshot()
			_ = stats.Snapshot()
			_ = act.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	snap := f.Snapshot()
	if got := snap[len(snap)-1].Seq + 1; got != writers*perWriter {
		t.Errorf("%d records written, want %d", got, writers*perWriter)
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq != snap[i-1].Seq+1 {
			t.Errorf("non-dense seq at %d: %d then %d", i, snap[i-1].Seq, snap[i].Seq)
		}
	}
	var calls int64
	for _, s := range stats.Snapshot() {
		calls += s.Calls
	}
	if calls != writers*perWriter {
		t.Errorf("stats calls = %d, want %d", calls, writers*perWriter)
	}
	if n := len(act.Snapshot()); n != 0 {
		t.Errorf("activity not drained: %d", n)
	}
}
