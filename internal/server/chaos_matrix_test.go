// Full fault-point × fault-kind matrix for the server chaos points:
// {server.accept, server.admit, server.dispatch} × {error, panic, delay}.
// Each cell asserts the typed outcome on the wire, that the fault actually
// fired, that no goroutine leaks, and that the server keeps serving after
// the fault is disarmed.
package server_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/diag"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/server"
)

// chaosKind is one column of the matrix: the armed fault plus per-point
// outcome checks.
type chaosKind struct {
	name  string
	fault chaos.Fault
}

func chaosKinds() []chaosKind {
	return []chaosKind{
		{"error", chaos.Fault{Err: errors.New("injected server fault")}},
		{"panic", chaos.Fault{Panic: "injected server panic"}},
		{"delay", chaos.Fault{Delay: 5 * time.Millisecond}},
	}
}

// assertServerHealthy proves the server still accepts, admits, and executes
// after a fault: fresh connection, round-trip query, clean close.
func assertServerHealthy(t *testing.T, srv *server.Server) {
	t.Helper()
	c, err := server.Dial(srv.Addr().String(), "matrix")
	if err != nil {
		t.Fatalf("post-fault dial: %v", err)
	}
	defer c.Close()
	res, err := c.Do(context.Background(), "SELECT count(*) FROM sales")
	if err != nil {
		t.Fatalf("post-fault query: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(10) {
		t.Fatalf("post-fault query rows = %v, want [[10]]", res.Rows)
	}
}

// TestChaosMatrixAccept: faults at server.accept hit before the handshake,
// so every outcome surfaces at Dial. A panic is contained to the one
// connection (counted, no frame); an error is a typed refusal frame; a
// delay only slows the handshake down.
func TestChaosMatrixAccept(t *testing.T) {
	for _, k := range chaosKinds() {
		t.Run(k.name, func(t *testing.T) {
			defer leakcheck.Check(t)()
			srv := startServer(t, demoDB(t), server.Config{})
			defer srv.Close()
			chaos.Enable()
			defer chaos.Disable()
			chaos.Arm(chaos.ServerAccept, k.fault)

			panicsBefore := obs.Default.Counter("server.conn_panics").Value()
			c, err := server.Dial(srv.Addr().String(), "victim")
			switch k.name {
			case "error":
				if err == nil || !strings.Contains(err.Error(), "injected") {
					t.Fatalf("dial err = %v, want injected refusal", err)
				}
			case "panic":
				if err == nil {
					t.Fatal("dial succeeded through a panicking accept path")
				}
				if got := obs.Default.Counter("server.conn_panics").Value(); got != panicsBefore+1 {
					t.Fatalf("server.conn_panics = %d, want %d", got, panicsBefore+1)
				}
			case "delay":
				if err != nil {
					t.Fatalf("dial through delay fault: %v", err)
				}
				defer c.Close()
				if err := c.Ping(context.Background()); err != nil {
					t.Fatalf("ping after delayed accept: %v", err)
				}
			}
			if chaos.Fired(chaos.ServerAccept) == 0 {
				t.Fatal("accept fault never fired")
			}
			chaos.Disarm(chaos.ServerAccept)
			assertServerHealthy(t, srv)
		})
	}
}

// TestChaosMatrixStatement: faults at server.admit and server.dispatch hit
// inside a live session's statement path. Errors come back as wire errors,
// panics are contained into PCT206 frames, delays succeed — and in every
// cell the session itself survives.
func TestChaosMatrixStatement(t *testing.T) {
	points := []string{chaos.ServerAdmit, chaos.ServerDispatch}
	for _, point := range points {
		for _, k := range chaosKinds() {
			t.Run(point+"/"+k.name, func(t *testing.T) {
				defer leakcheck.Check(t)()
				srv := startServer(t, demoDB(t), server.Config{})
				defer srv.Close()
				c := dial(t, srv, "victim")
				defer c.Close()
				chaos.Enable()
				defer chaos.Disable()
				chaos.Arm(point, k.fault)

				res, err := c.Do(context.Background(), "SELECT count(*) FROM sales")
				switch k.name {
				case "error":
					if err == nil || !strings.Contains(err.Error(), "injected") {
						t.Fatalf("statement err = %v, want injected fault", err)
					}
				case "panic":
					if got := diag.CodeOf(err); got != diag.CodePanic {
						t.Fatalf("statement code = %q (err %v), want %s", got, err, diag.CodePanic)
					}
				case "delay":
					if err != nil {
						t.Fatalf("statement through delay fault: %v", err)
					}
					if len(res.Rows) != 1 || res.Rows[0][0] != int64(10) {
						t.Fatalf("delayed statement rows = %v, want [[10]]", res.Rows)
					}
				}
				if chaos.Fired(point) == 0 {
					t.Fatalf("%s fault never fired", point)
				}

				// The session that took the fault keeps working once the
				// fault is disarmed — containment, not teardown.
				chaos.Disarm(point)
				if _, err := c.Do(context.Background(), "SELECT count(*) FROM daily"); err != nil {
					t.Fatalf("same session after fault: %v", err)
				}
				assertServerHealthy(t, srv)
			})
		}
	}
}
