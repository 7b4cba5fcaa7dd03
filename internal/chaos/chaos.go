// Package chaos is a deterministic fault-injection registry for lifecycle
// testing. Production code marks the places where a long-running statement
// can fail — join builds, partition workers, merges, sink writes — with a
// named fault point:
//
//	if err := chaos.Hit(chaos.JoinBuild); err != nil {
//	    return err
//	}
//
// Tests arm a point with a Fault (an error to return, a value to panic
// with, or a delay to sleep) and run the statement; everything in between
// behaves exactly as it would on a real mid-statement failure. When the
// package is not enabled — the production state — Hit costs one atomic load
// and injection is impossible, so fault points are safe to leave in hot
// paths.
//
// Faults fire deterministically: Arm selects the point, Fault.After skips
// the first N hits (so "partition worker 2" or "the 3rd appended row" is
// addressable), and HitN restricts a fault to one worker index. The
// registry is safe for concurrent use; workers on different goroutines hit
// the same points the engine serializes through armed state under a mutex.
package chaos

import (
	"sync"
	"sync/atomic"
	"time"
)

// The named fault points the engine and planner expose. Tests should use
// these constants; Arm rejects unknown names so a renamed call site cannot
// silently detach its tests.
const (
	// JoinBuild fires inside buildSide.ensure, before the hash table of a
	// join build side is constructed.
	JoinBuild = "engine.join.build"
	// AggWorker fires at the start of each partition worker of the engine's
	// fold fan-out; HitN passes the worker index so faults can target
	// worker k.
	AggWorker = "engine.agg.worker"
	// AggMerge fires at the start of that helper's merge, after every
	// worker has finished.
	AggMerge = "engine.agg.merge"
	// InsertSink fires before each row is appended to the staging table of
	// an INSERT; After addresses the Nth row.
	InsertSink = "engine.insert.sink"
	// UpdateApply fires before each cell an in-place UPDATE writes; HitN
	// passes the 1-based write number and After addresses the Nth. A fault
	// after the k-th write must leave every cell, index and the epoch as
	// before the statement (the undo record replays).
	UpdateApply = "engine.update.apply"
	// CacheDelta fires for each delta row re-aggregated during incremental
	// maintenance of a cached summary; After addresses the Nth row. A fault
	// here must degrade the cache to a rebuild, never to a stale read.
	CacheDelta = "core.cache.delta"
	// CacheMerge fires once per incremental refresh, before the statement that
	// merges the delta into the cached summary (the summary's roll-up over
	// cached rows ∪ delta rollup). Same degradation contract as CacheDelta.
	CacheMerge = "core.cache.merge"
	// ServerAccept fires in the server's per-connection handler right
	// after accept, before the hello handshake; a fault here must refuse
	// one connection without wedging the accept loop.
	ServerAccept = "server.accept"
	// ServerAdmit fires on the statement path before admission control; a
	// fault here must surface as a typed wire error on that statement only.
	ServerAdmit = "server.admit"
	// ServerDispatch fires after admission, immediately before statement
	// execution; a panic here must be contained per connection (PCT206 on
	// the wire) with the grant released.
	ServerDispatch = "server.dispatch"
)

// points is the closed set of valid fault-point names.
var points = map[string]bool{
	JoinBuild:      true,
	AggWorker:      true,
	AggMerge:       true,
	InsertSink:     true,
	UpdateApply:    true,
	CacheDelta:     true,
	CacheMerge:     true,
	ServerAccept:   true,
	ServerAdmit:    true,
	ServerDispatch: true,
}

// Fault describes one injected failure. Exactly one of Err and Panic is
// normally set; Delay may accompany either or stand alone (a pure latency
// fault).
type Fault struct {
	// Err is returned by Hit when the fault fires.
	Err error
	// Panic, when non-nil, makes Hit panic with this value when the fault
	// fires (after any Delay).
	Panic any
	// Delay is slept before the fault's outcome when it fires.
	Delay time.Duration
	// After skips the first After hits of the point: 0 fires on the first
	// hit, 2 on the third. For AggWorker, HitN indexes workers directly via
	// Worker instead.
	After int
	// Worker restricts the fault to HitN calls with this 1-based index
	// (matching the "worker k/N" span names); 0, the default, matches any
	// index.
	Worker int
}

type armedFault struct {
	fault Fault
	hits  int // hits seen so far (matching Worker)
	fired int // times the fault actually fired
}

var (
	enabled atomic.Bool
	mu      sync.Mutex
	armed   map[string]*armedFault
)

// Enable turns the registry on. Production never calls this; tests do,
// paired with a deferred Disable.
func Enable() { enabled.Store(true) }

// Disable turns the registry off and clears every armed fault.
func Disable() {
	mu.Lock()
	armed = nil
	mu.Unlock()
	enabled.Store(false)
}

// Arm installs a fault at a named point, replacing any fault armed there.
// Unknown point names panic: they mean a test and a call site disagree.
func Arm(point string, f Fault) {
	if !points[point] {
		panic("chaos: unknown fault point " + point)
	}
	mu.Lock()
	defer mu.Unlock()
	if armed == nil {
		armed = make(map[string]*armedFault)
	}
	armed[point] = &armedFault{fault: f}
}

// Disarm removes the fault at a point, keeping the registry enabled.
func Disarm(point string) {
	mu.Lock()
	defer mu.Unlock()
	delete(armed, point)
}

// Fired reports how many times the fault armed at point has fired.
func Fired(point string) int {
	mu.Lock()
	defer mu.Unlock()
	if a, ok := armed[point]; ok {
		return a.fired
	}
	return 0
}

// Hit marks the execution passing a fault point. It returns the armed
// fault's error, panics with its panic value, or sleeps its delay when the
// fault fires; otherwise (the overwhelmingly common case) it returns nil.
func Hit(point string) error { return HitN(point, -1) }

// HitN is Hit for indexed call sites (parallel workers, 1-based): the armed
// fault fires only when its Worker field is 0 (any) or equals idx.
func HitN(point string, idx int) error {
	if !enabled.Load() {
		return nil
	}
	mu.Lock()
	a, ok := armed[point]
	if !ok {
		mu.Unlock()
		return nil
	}
	f := a.fault
	if f.Worker != 0 && idx != -1 && f.Worker != idx {
		mu.Unlock()
		return nil
	}
	a.hits++
	if a.hits <= f.After {
		mu.Unlock()
		return nil
	}
	a.fired++
	mu.Unlock()
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.Panic != nil {
		panic(f.Panic)
	}
	return f.Err
}

// Points returns the registered fault-point names, for documentation and
// exhaustiveness tests.
func Points() []string {
	out := make([]string, 0, len(points))
	for p := range points {
		out = append(out, p)
	}
	return out
}
