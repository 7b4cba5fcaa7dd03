package obs

import (
	"sort"
	"sync"
	"time"
)

// Activity is the live-statement registry — the engine's pg_stat_activity.
// Begin/End bracket each recorded statement; Snapshot reads the registry
// plus each statement's live progress counters (supplied as a closure over
// the statement's governor atomics, so reading progress never takes the
// statement's locks).

// Activity tracks statements currently executing.
type Activity struct {
	mu     sync.Mutex
	active map[int64]*activeStmt
}

type activeStmt struct {
	id          int64
	query       string // normalized text
	fingerprint uint64
	start       time.Time
	// progress reads the statement's live counters: base rows scanned,
	// rows materialized, approximate bytes materialized. Nil when the
	// statement runs ungoverned.
	progress func() (scanned, rows, bytes int64)
}

// NewActivity returns an empty registry.
func NewActivity() *Activity {
	return &Activity{active: make(map[int64]*activeStmt)}
}

// Begin registers statement id as running. progress may be nil.
func (a *Activity) Begin(id int64, query string, fingerprint uint64, start time.Time, progress func() (scanned, rows, bytes int64)) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.active[id] = &activeStmt{id: id, query: query, fingerprint: fingerprint, start: start, progress: progress}
	a.mu.Unlock()
}

// End removes a finished statement.
func (a *Activity) End(id int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	delete(a.active, id)
	a.mu.Unlock()
}

// ActivitySnapshot is one running statement at snapshot time.
type ActivitySnapshot struct {
	ID          int64
	Query       string
	Fingerprint uint64
	Start       time.Time
	ElapsedNs   int64
	Scanned     int64
	Rows        int64
	Bytes       int64
	State       string
}

// Snapshot lists the running statements ordered by id (start order).
func (a *Activity) Snapshot() []ActivitySnapshot {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	stmts := make([]*activeStmt, 0, len(a.active))
	for _, st := range a.active {
		stmts = append(stmts, st)
	}
	a.mu.Unlock()
	sort.Slice(stmts, func(i, j int) bool { return stmts[i].id < stmts[j].id })
	now := time.Now()
	out := make([]ActivitySnapshot, len(stmts))
	for i, st := range stmts {
		s := ActivitySnapshot{
			ID:          st.id,
			Query:       st.query,
			Fingerprint: st.fingerprint,
			Start:       st.start,
			ElapsedNs:   now.Sub(st.start).Nanoseconds(),
			State:       "running",
		}
		if st.progress != nil {
			s.Scanned, s.Rows, s.Bytes = st.progress()
		}
		out[i] = s
	}
	return out
}
