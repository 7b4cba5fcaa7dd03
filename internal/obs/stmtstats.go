package obs

import (
	"sort"
	"sync"
)

// StmtStats accumulates cumulative per-fingerprint statement statistics —
// the engine's pg_stat_statements. Entries are keyed by (fingerprint hash,
// top-level flag): the same SQL text recorded both as a top-level query and
// as an engine statement inside a plan keeps two rows, like PostgreSQL's
// toplevel column, so neither level double-counts the other.
//
// Recording takes one registry RLock plus one per-entry mutex; distinct
// fingerprints never contend with each other. The entry count is bounded:
// once maxEntries fingerprints exist, observations for new fingerprints are
// dropped (counted in Dropped) rather than growing without limit.
type StmtStats struct {
	mu      sync.RWMutex
	entries map[stmtKey]*stmtEntry
	max     int
	dropped int64
}

type stmtKey struct {
	hash uint64
	top  bool
}

// stmtEntry is one fingerprint's cumulative state. All fields after the
// mutex are guarded by it.
type stmtEntry struct {
	mu          sync.Mutex
	query       string // normalized text, from the first observation
	calls       int64
	errors      int64
	errCodes    map[string]int64
	totalNs     int64
	minNs       int64
	maxNs       int64
	hist        Histogram
	rows        int64
	rowsScanned int64
	cacheHits   int64
	cacheMisses int64
	parallel    int64
}

// defaultMaxStatements bounds the fingerprint table when the caller does not
// choose a size.
const defaultMaxStatements = 5000

// NewStmtStats returns an empty statistics table holding at most max
// fingerprints (<= 0 uses defaultMaxStatements).
func NewStmtStats(max int) *StmtStats {
	if max <= 0 {
		max = defaultMaxStatements
	}
	return &StmtStats{entries: make(map[stmtKey]*stmtEntry), max: max}
}

// StmtObservation is one finished statement execution.
type StmtObservation struct {
	Hash  uint64
	Query string // normalized text; stored on first observation only
	Top   bool   // top-level API query (true) or engine statement (false)
	DurNs int64
	Rows  int64 // result rows, or affected rows for DML
	// Scanned is base-table rows pulled by the statement's scans.
	Scanned int64
	// ErrCode is the stable PCTxxx code of a failed execution, "error" for
	// an uncoded failure, "" for success.
	ErrCode string
	// CacheHits/CacheMisses are summary-cache lookups attributable to this
	// execution (top-level records only; engine statements leave them 0).
	CacheHits   int64
	CacheMisses int64
	// Parallel reports that the execution took the parallel aggregation path.
	Parallel bool
}

// Observe folds one execution into its fingerprint's entry.
func (s *StmtStats) Observe(o StmtObservation) {
	if s == nil {
		return
	}
	key := stmtKey{hash: o.Hash, top: o.Top}
	s.mu.RLock()
	e := s.entries[key]
	s.mu.RUnlock()
	if e == nil {
		s.mu.Lock()
		e = s.entries[key]
		if e == nil {
			if len(s.entries) >= s.max {
				s.dropped++
				s.mu.Unlock()
				return
			}
			e = &stmtEntry{query: o.Query, errCodes: map[string]int64{}, minNs: o.DurNs}
			s.entries[key] = e
		}
		s.mu.Unlock()
	}
	e.mu.Lock()
	e.calls++
	e.totalNs += o.DurNs
	if o.DurNs < e.minNs || e.calls == 1 {
		e.minNs = o.DurNs
	}
	if o.DurNs > e.maxNs {
		e.maxNs = o.DurNs
	}
	e.hist.Observe(o.DurNs)
	e.rows += o.Rows
	e.rowsScanned += o.Scanned
	e.cacheHits += o.CacheHits
	e.cacheMisses += o.CacheMisses
	if o.Parallel {
		e.parallel++
	}
	if o.ErrCode != "" {
		e.errors++
		e.errCodes[o.ErrCode]++
	}
	e.mu.Unlock()
}

// StmtSnapshot is one fingerprint's statistics at snapshot time.
type StmtSnapshot struct {
	Fingerprint uint64
	Query       string
	Top         bool
	Calls       int64
	Errors      int64
	ErrCodes    map[string]int64
	TotalNs     int64
	MinNs       int64
	MaxNs       int64
	P50Ns       int64
	P99Ns       int64
	Rows        int64
	RowsScanned int64
	CacheHits   int64
	CacheMisses int64
	Parallel    int64
}

// Snapshot returns every fingerprint's statistics, ordered by fingerprint
// then top-level flag for deterministic output.
func (s *StmtStats) Snapshot() []StmtSnapshot {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	keys := make([]stmtKey, 0, len(s.entries))
	ents := make([]*stmtEntry, 0, len(s.entries))
	for k, e := range s.entries {
		keys = append(keys, k)
		ents = append(ents, e)
	}
	s.mu.RUnlock()
	out := make([]StmtSnapshot, len(keys))
	for i, e := range ents {
		e.mu.Lock()
		snap := StmtSnapshot{
			Fingerprint: keys[i].hash,
			Query:       e.query,
			Top:         keys[i].top,
			Calls:       e.calls,
			Errors:      e.errors,
			TotalNs:     e.totalNs,
			MinNs:       e.minNs,
			MaxNs:       e.maxNs,
			P50Ns:       e.hist.quantile(0.50),
			P99Ns:       e.hist.quantile(0.99),
			Rows:        e.rows,
			RowsScanned: e.rowsScanned,
			CacheHits:   e.cacheHits,
			CacheMisses: e.cacheMisses,
			Parallel:    e.parallel,
		}
		if len(e.errCodes) > 0 {
			snap.ErrCodes = make(map[string]int64, len(e.errCodes))
			for c, n := range e.errCodes {
				snap.ErrCodes[c] = n
			}
		}
		e.mu.Unlock()
		out[i] = snap
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Fingerprint != out[b].Fingerprint {
			return out[a].Fingerprint < out[b].Fingerprint
		}
		return !out[a].Top && out[b].Top
	})
	return out
}

// Len reports the number of tracked fingerprints.
func (s *StmtStats) Len() int {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Dropped reports observations discarded because the fingerprint table was
// full.
func (s *StmtStats) Dropped() int64 {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dropped
}

// Reset discards every entry.
func (s *StmtStats) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.entries = make(map[stmtKey]*stmtEntry)
	s.dropped = 0
	s.mu.Unlock()
}
