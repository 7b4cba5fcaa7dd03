// White-box graceful-drain suite, driven by a deterministic fake clock so
// the drain-deadline branch runs without wall-clock sleeps: in-flight
// statements complete (or are governor-cancelled at the deadline), queued
// statements shed with PCT212, late connects are refused with PCT212, and
// no goroutine leaks across any interleaving.
package server

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/diag"
	"repro/internal/leakcheck"
	"repro/internal/workload"
	"repro/pctagg"
)

// fakeClock is a manual clock: Now is advanced explicitly and After timers
// fire from Advance, never from the wall.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

type fakeTimer struct {
	at time.Time
	ch chan time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{at: c.now.Add(d), ch: make(chan time.Time, 1)}
	if d <= 0 {
		t.ch <- c.now
		return t.ch
	}
	c.timers = append(c.timers, t)
	return t.ch
}

// Advance moves the clock and fires every timer that came due.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	kept := c.timers[:0]
	for _, t := range c.timers {
		if !t.at.After(c.now) {
			t.ch <- c.now
		} else {
			kept = append(kept, t)
		}
	}
	c.timers = kept
}

// drainHarness is one running server over the demo tables with a fake
// clock and an installed dispatch gate.
type drainHarness struct {
	srv   *Server
	clock *fakeClock
	gate  *Gate
}

func newDrainHarness(t *testing.T, cfg Config) *drainHarness {
	t.Helper()
	db := pctagg.Open()
	if _, err := db.Exec(workload.DemoSQL); err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	cfg.Addr = "127.0.0.1:0"
	cfg.Clock = clk
	srv := New(db, cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	return &drainHarness{srv: srv, clock: clk, gate: NewGate(srv)}
}

// waitState polls until the server reaches the wanted lifecycle state.
func (h *drainHarness) waitState(t *testing.T, want int32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if h.srv.state.Load() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("server state = %d, want %d", h.srv.state.Load(), want)
}

// TestDrainLetsInflightFinish: a drain with a statement in flight and one
// queued behind it sheds the queued statement with PCT212, refuses a late
// connect with PCT212, lets the in-flight statement complete, and returns
// without ever reaching the deadline — no clock advance needed.
func TestDrainLetsInflightFinish(t *testing.T) {
	defer leakcheck.Check(t)()
	h := newDrainHarness(t, Config{
		Tenants: []TenantProfile{{Name: "a", MaxConcurrent: 1, MaxQueue: 4}},
	})
	defer h.srv.Close()
	c, err := Dial(h.srv.Addr().String(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	inflight := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), "SELECT count(*) FROM sales")
		inflight <- err
	}()
	h.gate.WaitInFlight(t, 1)

	queued := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), "SELECT count(*) FROM daily")
		queued <- err
	}()
	h.gate.WaitQueued(t, 1)

	done := make(chan error, 1)
	go func() { done <- h.srv.Shutdown() }()
	h.waitState(t, stateDraining)

	// The queued statement is shed with the typed drain code.
	if code := diag.CodeOf(<-queued); code != diag.CodeDrainRejected {
		t.Fatalf("queued statement code = %q, want %s", code, diag.CodeDrainRejected)
	}
	// A late connect is refused with the same typed error, not dropped.
	if _, err := Dial(h.srv.Addr().String(), "a"); diag.CodeOf(err) != diag.CodeDrainRejected {
		t.Fatalf("late connect err = %v, want %s", err, diag.CodeDrainRejected)
	}
	// A statement submitted on the live session during drain is refused too.
	if _, err := c.Do(context.Background(), "SELECT count(*) FROM daily"); diag.CodeOf(err) != diag.CodeDrainRejected {
		t.Fatalf("late statement err = %v, want %s", err, diag.CodeDrainRejected)
	}

	// Release the gate: the in-flight statement completes successfully and
	// the drain finishes cleanly — the deadline branch never runs.
	h.gate.Release()
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight statement during drain: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	h.waitState(t, stateStopped)
}

// TestDrainDeadlineCancelsInflight drives the deadline branch with the fake
// clock: a statement that never finishes on its own is cancelled through
// the governor (PCT200 on the wire) when the drain deadline passes.
func TestDrainDeadlineCancelsInflight(t *testing.T) {
	defer leakcheck.Check(t)()
	h := newDrainHarness(t, Config{DrainTimeout: 30 * time.Second})
	defer h.srv.Close()
	c, err := Dial(h.srv.Addr().String(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	inflight := make(chan error, 1)
	go func() {
		// Held at the gate until its context dies: a stand-in for a
		// statement that outlives any reasonable drain.
		_, err := c.Do(context.Background(), "SELECT count(*) FROM sales")
		inflight <- err
	}()
	h.gate.WaitInFlight(t, 1)

	done := make(chan error, 1)
	go func() { done <- h.srv.Shutdown() }()
	h.waitState(t, stateDraining)

	// Not enough: the statement must still be in flight.
	h.clock.Advance(29 * time.Second)
	select {
	case err := <-inflight:
		t.Fatalf("statement ended before the drain deadline: %v", err)
	case err := <-done:
		t.Fatalf("drain ended before its deadline: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Cross the deadline: the governor cancels the statement (PCT200 over
	// the wire) and Shutdown reports the forced cancellation.
	h.clock.Advance(2 * time.Second)
	if code := diag.CodeOf(<-inflight); code != diag.CodeCancelled {
		t.Fatalf("in-flight statement code = %q, want %s", code, diag.CodeCancelled)
	}
	if err := <-done; err == nil {
		t.Fatal("Shutdown reported a clean drain after forcing cancellation")
	}
	h.waitState(t, stateStopped)
}

// TestShutdownIdempotent: concurrent Shutdown/Close calls share one drain
// and all return.
func TestShutdownIdempotent(t *testing.T) {
	defer leakcheck.Check(t)()
	h := newDrainHarness(t, Config{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.srv.Shutdown()
		}()
	}
	wg.Wait()
	if err := h.srv.Close(); err != nil {
		t.Fatalf("Close after Shutdown: %v", err)
	}
	h.waitState(t, stateStopped)
}

// TestCloseCutsDrainShort: a hard Close during a gated drain cancels the
// in-flight statement immediately instead of waiting out the deadline.
func TestCloseCutsDrainShort(t *testing.T) {
	defer leakcheck.Check(t)()
	h := newDrainHarness(t, Config{DrainTimeout: time.Hour})
	c, err := Dial(h.srv.Addr().String(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	inflight := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), "SELECT count(*) FROM sales")
		inflight <- err
	}()
	h.gate.WaitInFlight(t, 1)

	done := make(chan error, 1)
	go func() { done <- h.srv.Shutdown() }()
	h.waitState(t, stateDraining)

	h.srv.Close()
	if code := diag.CodeOf(<-inflight); code != diag.CodeCancelled {
		t.Fatalf("in-flight statement code = %q, want %s", code, diag.CodeCancelled)
	}
	<-done
	h.waitState(t, stateStopped)
}
