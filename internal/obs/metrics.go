package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// The metrics registry is process-wide and write-hot: counters and
// histograms are updated from statement execution paths, possibly from many
// goroutines at once. Registration (name → metric) takes a lock once, at
// package init or first use; handles are then plain atomics, so recording a
// sample is a single atomic add and allocates nothing. Engine code keeps
// package-level handles instead of re-looking names up per statement.

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable int64 (e.g. a current pool size).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of fixed log-scale histogram buckets. Bucket i
// counts samples with ns < 2^(i+histShift); the last bucket is unbounded.
// With histShift 10 the range spans 1µs (2^10 ns) to ~17s (2^34 ns), which
// covers parse-time microseconds through paper-scale query seconds.
const (
	histBuckets = 25
	histShift   = 10
)

// Histogram accumulates nanosecond durations into fixed power-of-two
// buckets. All fields are atomics; Observe is lock- and allocation-free.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// bucketIndex maps a nanosecond sample to its bucket.
func bucketIndex(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns)) // smallest b with ns < 2^b
	i := b - histShift
	if i < 0 {
		i = 0
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// Observe records one duration sample in nanoseconds.
func (h *Histogram) Observe(ns int64) {
	h.buckets[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// Count returns the number of observed samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all samples in nanoseconds.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// bucketBound returns the exclusive upper bound (ns) of bucket i; the last
// bucket returns -1 (unbounded).
func bucketBound(i int) int64 {
	if i >= histBuckets-1 {
		return -1
	}
	return int64(1) << (i + histShift)
}

// quantile estimates the q-quantile (q in [0,1]) of the observed samples in
// nanoseconds, interpolating linearly within the bucket the target rank
// lands in. The unbounded last bucket returns its lower edge. Zero samples
// return 0. The estimate is read from atomics without stopping writers, so
// under concurrent observation it is approximate — exactly the fidelity a
// monitoring quantile needs.
func (h *Histogram) quantile(q float64) int64 {
	total := h.count.Load()
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target sample, 1-based: ceil(q*total), at least 1.
	target := int64(q * float64(total))
	if float64(target) < q*float64(total) || target == 0 {
		target++
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		b := h.buckets[i].Load()
		if b == 0 {
			continue
		}
		cum += b
		if cum < target {
			continue
		}
		var lower int64
		if i > 0 {
			lower = bucketBound(i - 1)
		}
		upper := bucketBound(i)
		if upper < 0 {
			return lower
		}
		// Position of the target rank inside this bucket's count.
		within := target - (cum - b)
		return lower + (upper-lower)*within/b
	}
	// Concurrent writers can make count outrun the bucket sums momentarily;
	// fall back to the top bucket's lower edge.
	return bucketBound(histBuckets - 2)
}

// Registry holds named metrics. Names must be unique across all three
// kinds; registering an existing name with the same kind returns the
// existing metric (so handle lookup is idempotent), while a kind clash
// panics — it is always a programming error caught by the guard test.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// newRegistry returns an empty registry.
func newRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Default is the process-wide registry the engine records into.
var Default = newRegistry()

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.mustBeFree(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.mustBeFree(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, registering it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.mustBeFree(name, "histogram")
	h := &Histogram{}
	r.hists[name] = h
	return h
}

// mustBeFree panics when name is already taken by another metric kind.
// Called with r.mu held.
func (r *Registry) mustBeFree(name, kind string) {
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("obs: metric %q already registered as a counter, requested as %s", name, kind))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("obs: metric %q already registered as a gauge, requested as %s", name, kind))
	}
	if _, ok := r.hists[name]; ok {
		panic(fmt.Sprintf("obs: metric %q already registered as a histogram, requested as %s", name, kind))
	}
}

// Names returns every registered metric name, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// JSON renders the registry expvar-style: a single JSON object keyed by
// metric name. Counters and gauges render as numbers; histograms as
// {"count":…, "sum_ns":…, "buckets":{"<le_ns>":n, …, "+inf":n}} with every
// bucket present, keyed by its bucketBound upper edge, so a downstream
// consumer can reconstruct the full distribution (and quantiles) without
// knowing the bucket layout. Keys are sorted for stable output.
func (r *Registry) JSON() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	type entry struct {
		name string
		body string
	}
	var entries []entry
	for n, c := range r.counters {
		entries = append(entries, entry{n, fmt.Sprintf("%d", c.Value())})
	}
	for n, g := range r.gauges {
		entries = append(entries, entry{n, fmt.Sprintf("%d", g.Value())})
	}
	for n, h := range r.hists {
		var bb strings.Builder
		bb.WriteByte('{')
		for i := 0; i < histBuckets; i++ {
			if i > 0 {
				bb.WriteByte(',')
			}
			v := h.buckets[i].Load()
			if bound := bucketBound(i); bound < 0 {
				fmt.Fprintf(&bb, `"+inf":%d`, v)
			} else {
				fmt.Fprintf(&bb, `"%d":%d`, bound, v)
			}
		}
		bb.WriteByte('}')
		entries = append(entries, entry{n, fmt.Sprintf(`{"count":%d,"sum_ns":%d,"buckets":%s}`,
			h.Count(), h.Sum(), bb.String())})
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].name < entries[b].name })
	var sb strings.Builder
	sb.WriteString("{\n")
	for i, e := range entries {
		fmt.Fprintf(&sb, "  %q: %s", e.name, e.body)
		if i < len(entries)-1 {
			sb.WriteByte(',')
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("}\n")
	return sb.String()
}

// MetricSnapshot is one registered metric's state at snapshot time. Kind is
// "counter", "gauge", or "histogram"; Count/SumNs/P50Ns/P99Ns are only
// meaningful for histograms, Value only for counters and gauges.
type MetricSnapshot struct {
	Name  string
	Kind  string
	Value int64
	Count int64
	SumNs int64
	P50Ns int64
	P99Ns int64
}

// Snapshot returns every registered metric's current state, sorted by name
// — the row source of the pct_metrics virtual table.
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.Lock()
	out := make([]MetricSnapshot, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n, c := range r.counters {
		out = append(out, MetricSnapshot{Name: n, Kind: "counter", Value: c.Value()})
	}
	for n, g := range r.gauges {
		out = append(out, MetricSnapshot{Name: n, Kind: "gauge", Value: g.Value()})
	}
	for n, h := range r.hists {
		out = append(out, MetricSnapshot{Name: n, Kind: "histogram",
			Count: h.Count(), SumNs: h.Sum(), P50Ns: h.quantile(0.50), P99Ns: h.quantile(0.99)})
	}
	r.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}
