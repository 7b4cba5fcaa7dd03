// Introspection catalog surface of the public API: queryable pct_stat_*
// system tables over the database's own execution statistics. See DESIGN.md
// "Introspection catalog" for the table reference.
package pctagg

import "repro/internal/engine"

// IntrospectionConfig sizes the introspection state; the zero value uses
// the defaults (see engine.IntrospectionConfig).
type IntrospectionConfig = engine.IntrospectionConfig

// EnableIntrospection turns on statement recording and registers the
// introspection catalog — five read-only virtual relations queryable with
// the full dialect, percentage aggregations included:
//
//	pct_stat_statements  cumulative per-fingerprint statement statistics
//	pct_stat_activity    statements executing right now, with live progress
//	pct_metrics          every registered counter, gauge, and histogram
//	pct_cache_entries    the summary cache's entries and lifecycle states
//	pct_trace_recent     flight recorder: the last N completed statements
//
// Each scan sees a point-in-time snapshot. Queries that read any of these
// relations are themselves excluded from recording, along with every
// statement they generate, so observing the statistics never changes them.
// pct_stat_statements' top column is 1 for a statement a caller sent and 0
// for one a percentage query generated. Disabled databases pay nothing: the
// recording path is a single atomic load.
func (db *DB) EnableIntrospection(cfg IntrospectionConfig) error {
	db.eng.EnableIntrospection(cfg)
	return db.planner.RegisterCacheIntrospection()
}

// DisableIntrospection switches recording off and drops the catalog along
// with its accumulated statistics.
func (db *DB) DisableIntrospection() {
	db.eng.DisableIntrospection()
	db.planner.UnregisterCacheIntrospection()
}

// IntrospectionStats summarizes the introspection state without a query.
type IntrospectionStats struct {
	// Enabled reports whether statement recording is on.
	Enabled bool
	// Statements is the number of distinct fingerprints tracked.
	Statements int
	// Dropped counts observations discarded because the fingerprint table
	// was full (new fingerprints past the configured maximum).
	Dropped int64
	// Active is the number of statements executing right now.
	Active int
	// FlightRecords is the number of completed statements retained in the
	// flight recorder.
	FlightRecords int
}

// IntrospectionStats reports the current introspection state.
func (db *DB) IntrospectionStats() IntrospectionStats {
	s := IntrospectionStats{Enabled: db.eng.IntrospectionEnabled()}
	if stats := db.eng.StatementStats(); stats != nil {
		s.Statements = stats.Len()
		s.Dropped = stats.Dropped()
	}
	s.Active = len(db.eng.ActiveStatements())
	s.FlightRecords = len(db.eng.FlightRecords())
	return s
}

// ResetStatementStats clears the cumulative per-fingerprint statistics
// (pct_stat_statements starts empty again); the flight recorder and live
// activity are untouched.
func (db *DB) ResetStatementStats() {
	if stats := db.eng.StatementStats(); stats != nil {
		stats.Reset()
	}
}
