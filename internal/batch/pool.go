// Package batch provides the fixed-size column-batch constants and the
// size-classed buffer pool backing the vectorized execution path.
//
// The execution kernels in internal/engine and internal/core process rows
// in batches of Size (1024, matching the governor stride) and need short
// scratch slices on every statement: selection vectors, boxed value
// scratch, group-key byte buffers, and int64 accumulator scratch. A naive
// implementation allocates these per statement and feeds the GC; the pool
// recycles them across statements per power-of-two size class, the same
// discipline trex-emu's mbuf pool uses for packet buffers.
//
// Free lists are bounded and mutex-guarded (not sync.Pool) so hit/miss
// accounting is deterministic and testable; the lock is taken once per
// Get/Put, never per row.
package batch

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/value"
)

// Size is the number of rows processed per batch. It deliberately equals
// the governor stride (engine govStride = 1024) so one batch is one
// cancellation/limit check.
const Size = 1024

// Pool size classes are powers of two from minClass to maxClass; requests
// above the largest class are served by plain make and discarded on Put.
const (
	minClassBits = 5  // 32
	maxClassBits = 14 // 16384
	numClasses   = maxClassBits - minClassBits + 1

	// maxPerClass bounds each class's free list; beyond it Put discards.
	maxPerClass = 8
)

// Pool metrics: statement-lifetime acquire/release traffic of the Default
// pool. hits/misses split Gets by whether a pooled buffer was reused.
var (
	mPoolGets   = obs.Default.Counter("batch.pool.gets")
	mPoolPuts   = obs.Default.Counter("batch.pool.puts")
	mPoolHits   = obs.Default.Counter("batch.pool.hits")
	mPoolMisses = obs.Default.Counter("batch.pool.misses")
)

// Stats is a point-in-time snapshot of a pool's traffic counters.
type Stats struct {
	Gets   int64 // buffers handed out
	Puts   int64 // buffers returned
	Hits   int64 // Gets served from a free list
	Misses int64 // Gets that had to allocate
}

// HitRatio is Hits/Gets, 0 when the pool is unused.
func (s Stats) HitRatio() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// classFor returns the free-list index for a capacity request, or -1 when
// the request exceeds the largest class and must bypass the pool.
func classFor(n int) int {
	if n < 0 {
		return -1
	}
	c := 0
	for sz := 1 << minClassBits; sz < n; sz <<= 1 {
		c++
	}
	if c >= numClasses {
		return -1
	}
	return c
}

// classCap is the capacity allocated for a class.
func classCap(c int) int { return 1 << (minClassBits + c) }

// freeLists holds one bounded LIFO free list per size class for one
// element type.
type freeLists[T any] struct {
	free [numClasses][][]T
}

// get hands out a zero-length slice with capacity ≥ n, reusing a pooled
// buffer when one is available. Reports whether the get was a hit.
func (l *freeLists[T]) get(n int) ([]T, bool) {
	c := classFor(n)
	if c < 0 {
		return make([]T, 0, n), false
	}
	if fl := l.free[c]; len(fl) > 0 {
		s := fl[len(fl)-1]
		l.free[c] = fl[:len(fl)-1]
		return s[:0], true
	}
	return make([]T, 0, classCap(c)), false
}

// put returns a buffer to its size class; over-capacity and over-full
// classes discard.
func (l *freeLists[T]) put(s []T, poison func([]T)) bool {
	c := classFor(cap(s))
	if c < 0 || classCap(c) != cap(s) {
		// Not a capacity we allocate: either above the largest class or a
		// foreign buffer; recycling it would skew class accounting.
		return false
	}
	if poison != nil {
		poison(s[:cap(s)])
	}
	if len(l.free[c]) >= maxPerClass {
		return false
	}
	l.free[c] = append(l.free[c], s[:0])
	return true
}

// Pool recycles the batch-execution scratch buffers. The zero value is
// ready to use; Default is the engine-wide instance.
type Pool struct {
	mu                       sync.Mutex
	sel                      freeLists[int32]       // selection vectors
	vals                     freeLists[value.Value] // boxed value scratch (row buffers, key scratch)
	bytes                    freeLists[byte]        // group-key encode buffers
	ints                     freeLists[int64]       // accumulator scratch
	gets, puts, hits, misses atomic.Int64

	poison atomic.Bool // test hook: overwrite buffers on Put
}

// Default is the pool the engine's batch kernels share.
var Default = &Pool{}

// SetPoison toggles poison-on-put: returned buffers are overwritten with
// sentinel values so any use-after-Put aliasing shows up as corrupted
// results in tests.
func (p *Pool) SetPoison(on bool) { p.poison.Store(on) }

// Sentinel values written by poison-on-put.
const (
	PoisonSel  = int32(-0x5EEDBAD)
	PoisonInt  = int64(-0x5EEDBADC0FFEE)
	PoisonByte = byte(0xA5)
)

func (p *Pool) account(hit bool) {
	p.gets.Add(1)
	mPoolGets.Inc()
	if hit {
		p.hits.Add(1)
		mPoolHits.Inc()
	} else {
		p.misses.Add(1)
		mPoolMisses.Inc()
	}
}

// GetSel acquires a selection vector with capacity ≥ n.
func (p *Pool) GetSel(n int) []int32 {
	p.mu.Lock()
	s, hit := p.sel.get(n)
	p.mu.Unlock()
	p.account(hit)
	return s
}

// PutSel releases a selection vector.
func (p *Pool) PutSel(s []int32) {
	if s == nil {
		return
	}
	var poison func([]int32)
	if p.poison.Load() {
		poison = func(b []int32) {
			for i := range b {
				b[i] = PoisonSel
			}
		}
	}
	p.mu.Lock()
	ok := p.sel.put(s, poison)
	p.mu.Unlock()
	if ok {
		p.puts.Add(1)
		mPoolPuts.Inc()
	}
}

// GetBytes acquires a byte buffer with capacity ≥ n (group-key encoding).
func (p *Pool) GetBytes(n int) []byte {
	p.mu.Lock()
	s, hit := p.bytes.get(n)
	p.mu.Unlock()
	p.account(hit)
	return s
}

// PutBytes releases a byte buffer.
func (p *Pool) PutBytes(s []byte) {
	if s == nil {
		return
	}
	var poison func([]byte)
	if p.poison.Load() {
		poison = func(b []byte) {
			for i := range b {
				b[i] = PoisonByte
			}
		}
	}
	p.mu.Lock()
	ok := p.bytes.put(s, poison)
	p.mu.Unlock()
	if ok {
		p.puts.Add(1)
		mPoolPuts.Inc()
	}
}

// GetInts acquires an int64 scratch slice with capacity ≥ n.
func (p *Pool) GetInts(n int) []int64 {
	p.mu.Lock()
	s, hit := p.ints.get(n)
	p.mu.Unlock()
	p.account(hit)
	return s
}

// PutInts releases an int64 scratch slice.
func (p *Pool) PutInts(s []int64) {
	if s == nil {
		return
	}
	var poison func([]int64)
	if p.poison.Load() {
		poison = func(b []int64) {
			for i := range b {
				b[i] = PoisonInt
			}
		}
	}
	p.mu.Lock()
	ok := p.ints.put(s, poison)
	p.mu.Unlock()
	if ok {
		p.puts.Add(1)
		mPoolPuts.Inc()
	}
}

// GetVals acquires a boxed-value scratch slice with capacity ≥ n.
func (p *Pool) GetVals(n int) []value.Value {
	p.mu.Lock()
	s, hit := p.vals.get(n)
	p.mu.Unlock()
	p.account(hit)
	return s
}

// PutVals releases a boxed-value scratch slice.
func (p *Pool) PutVals(s []value.Value) {
	if s == nil {
		return
	}
	var poison func([]value.Value)
	if p.poison.Load() {
		poison = func(b []value.Value) {
			for i := range b {
				b[i] = value.NewString("batch-pool-poison")
			}
		}
	}
	p.mu.Lock()
	ok := p.vals.put(s, poison)
	p.mu.Unlock()
	if ok {
		p.puts.Add(1)
		mPoolPuts.Inc()
	}
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Gets:   p.gets.Load(),
		Puts:   p.puts.Load(),
		Hits:   p.hits.Load(),
		Misses: p.misses.Load(),
	}
}

// ClassCount reports how many free buffers of each kind sit in the class
// serving capacity n — size-class reuse accounting for tests.
func (p *Pool) ClassCount(n int) (sel, vals, bytes, ints int) {
	c := classFor(n)
	if c < 0 {
		return 0, 0, 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.sel.free[c]), len(p.vals.free[c]), len(p.bytes.free[c]), len(p.ints.free[c])
}
