package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	root := NewSpan("statement")
	c1 := root.NewChild("parse")
	c1.End()
	c2 := root.NewChild("aggregate")
	c2.SetRows(10, 4)
	c2.Attr("keys", "state")
	c2.End()
	root.End()

	if len(root.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(root.Children))
	}
	if root.Duration <= 0 || c1.Duration <= 0 {
		t.Fatalf("durations not stamped: root=%v parse=%v", root.Duration, c1.Duration)
	}
	if root.Duration < c1.Duration+c2.Duration-time.Microsecond {
		t.Errorf("sequential children (%v + %v) exceed parent %v",
			c1.Duration, c2.Duration, root.Duration)
	}
	out := root.Format()
	for _, want := range []string{"statement", "  parse", "  aggregate", "in=10", "out=4", "keys=state"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
}

func TestSpanNilSafety(t *testing.T) {
	var s *Span
	c := s.NewChild("x") // must not panic, must stay nil
	if c != nil {
		t.Fatalf("nil span produced a child")
	}
	c.End()
	c.SetRows(1, 1)
	c.Attr("k", "v")
	c.AttrInt("n", 1)
	c.AddChild(nil)
	c.Walk(func(*Span) { t.Fatal("walked a nil span") })
	if c.Find("x") != nil {
		t.Fatal("found a span in nil tree")
	}
}

func TestSpanFindAndStageTotals(t *testing.T) {
	root := NewSpan("statement")
	a := root.NewChild("scan")
	a.SetDuration(3 * time.Millisecond)
	b := root.NewChild("scan")
	b.SetDuration(2 * time.Millisecond)
	j := root.NewChild("join-build")
	j.SetDuration(time.Millisecond)
	root.SetDuration(7 * time.Millisecond)

	if root.Find("join") != j {
		t.Errorf("Find(join) = %v", root.Find("join"))
	}
	if root.Find("nope") != nil {
		t.Errorf("Find(nope) matched")
	}
	names, totals := root.StageTotals()
	if len(names) != 3 {
		t.Fatalf("stage names = %v", names)
	}
	if totals["scan"] != 5*time.Millisecond {
		t.Errorf("scan total = %v, want 5ms", totals["scan"])
	}
}

func TestSpanConcurrentAttach(t *testing.T) {
	root := NewSpan("fan-out")
	root.Concurrent = true
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := root.NewChild("worker")
			c.End()
		}()
	}
	wg.Wait()
	root.End()
	if len(root.Children) != 16 {
		t.Fatalf("children = %d, want 16", len(root.Children))
	}
}

func TestCounterGauge(t *testing.T) {
	r := newRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("a.count") != c {
		t.Error("re-registration returned a different counter")
	}
	g := r.Gauge("a.gauge")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Errorf("gauge = %d, want 5", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := newRegistry()
	h := r.Histogram("h.ns")
	h.Observe(500)            // below first bound → bucket 0
	h.Observe(1 << 12)        // 4096ns
	h.Observe(int64(1) << 40) // beyond last bound → +inf bucket
	h.Observe(-3)             // clamped, must not panic
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if bucketIndex(500) != 0 {
		t.Errorf("bucketIndex(500) = %d, want 0", bucketIndex(500))
	}
	if bucketIndex(int64(1)<<40) != histBuckets-1 {
		t.Errorf("huge sample not in last bucket")
	}
	// Bounds are powers of two, strictly increasing, last unbounded.
	prev := int64(0)
	for i := 0; i < histBuckets-1; i++ {
		b := bucketBound(i)
		if b <= prev {
			t.Fatalf("bucket %d bound %d not increasing", i, b)
		}
		prev = b
	}
	if bucketBound(histBuckets-1) != -1 {
		t.Errorf("last bucket bound = %d, want -1", bucketBound(histBuckets-1))
	}
}

func TestRegistryJSONIsValid(t *testing.T) {
	r := newRegistry()
	r.Counter("x.count").Add(3)
	r.Gauge("x.gauge").Set(-1)
	r.Histogram("x.ns").Observe(2048)
	var doc map[string]any
	if err := json.Unmarshal([]byte(r.JSON()), &doc); err != nil {
		t.Fatalf("JSON() is not valid JSON: %v\n%s", err, r.JSON())
	}
	if doc["x.count"].(float64) != 3 { // floateq:ok small int exact in float64
		t.Errorf("x.count = %v", doc["x.count"])
	}
	hist := doc["x.ns"].(map[string]any)
	if hist["count"].(float64) != 1 { // floateq:ok small int exact in float64
		t.Errorf("histogram count = %v", hist["count"])
	}
}

func TestRegistryKindClashPanics(t *testing.T) {
	r := newRegistry()
	r.Counter("dup")
	defer func() {
		if recover() == nil {
			t.Error("registering dup as gauge did not panic")
		}
	}()
	r.Gauge("dup")
}

// TestRecordingAllocatesNothing is the acceptance check that metric
// recording adds zero allocations to hot loops.
func TestRecordingAllocatesNothing(t *testing.T) {
	r := newRegistry()
	c := r.Counter("alloc.count")
	h := r.Histogram("alloc.ns")
	g := r.Gauge("alloc.gauge")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(12345)
		g.Set(2)
	})
	if allocs != 0 { // floateq:ok exact zero sentinel
		t.Errorf("metric recording allocates %.1f per op, want 0", allocs)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := newRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(int64(i))
			}
			_ = r.JSON()
			_ = r.Names()
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", got)
	}
}
