package obs

import (
	"sync"
	"time"
)

// FlightRecorder is a bounded ring buffer of the last N completed statement
// records — enough context to reconstruct "what just happened" after an
// incident without a trace sink attached. Recording is a short critical
// section copying one fixed-size struct into a preallocated ring: no
// allocation, no I/O, and writers never block on readers for longer than a
// snapshot copy.

// FlightRecord is one completed statement.
type FlightRecord struct {
	// Seq is the record's global sequence number, monotonically increasing
	// across the recorder's lifetime (gaps never occur; old records are
	// overwritten in order).
	Seq         int64
	Fingerprint uint64
	Query       string // normalized text
	Start       time.Time
	DurNs       int64
	Rows        int64  // result or affected rows
	Scanned     int64  // base-table rows scanned
	ErrCode     string // stable PCT code, "error", or "" for success
	// Stages is the rendered per-stage time breakdown of the statement's
	// span tree ("scan=1.2ms fold=3.4ms …"), empty when the statement ran
	// untraced.
	Stages string
}

// FlightRecorder retains the most recent records in insertion order.
type FlightRecorder struct {
	mu   sync.Mutex
	ring []FlightRecord
	next int   // ring index the next record lands in
	seq  int64 // records ever written
}

// defaultFlightRecords is the ring size when the caller does not choose one.
const defaultFlightRecords = 256

// NewFlightRecorder returns a recorder retaining the last n records
// (<= 0 uses defaultFlightRecords).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = defaultFlightRecords
	}
	return &FlightRecorder{ring: make([]FlightRecord, n)}
}

// Record appends one completed statement, overwriting the oldest record
// once the ring is full. The record's Seq field is assigned here.
func (f *FlightRecorder) Record(rec FlightRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	rec.Seq = f.seq
	f.seq++
	f.ring[f.next] = rec
	f.next = (f.next + 1) % len(f.ring)
	f.mu.Unlock()
}

// Snapshot returns the retained records oldest-first.
func (f *FlightRecorder) Snapshot() []FlightRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := int(f.seq)
	if n > len(f.ring) {
		n = len(f.ring)
	}
	out := make([]FlightRecord, 0, n)
	start := f.next - n
	if start < 0 {
		start += len(f.ring)
	}
	for i := 0; i < n; i++ {
		out = append(out, f.ring[(start+i)%len(f.ring)])
	}
	return out
}
