package server

import "repro/internal/obs"

// The server's metric handles, resolved once. Counters cover the admission
// ledger (every statement is admitted or rejected with exactly one reason),
// lifecycle events, and containment; histograms cover where statements
// spend their time: waiting for admission, executing, and encoding the
// response frame (appendResponse), the wire's share of a slow statement.
var (
	mConnects        = obs.Default.Counter("server.connects")
	mSessions        = obs.Default.Gauge("server.sessions")
	mAdmitted        = obs.Default.Counter("server.admitted")
	mRejQueueFull    = obs.Default.Counter("server.rejected.queue_full")
	mRejTenantCap    = obs.Default.Counter("server.rejected.tenant_cap")
	mRejDrain        = obs.Default.Counter("server.rejected.drain")
	mSessionTimeouts = obs.Default.Counter("server.session_timeouts")
	mConnPanics      = obs.Default.Counter("server.conn_panics")
	mDrains          = obs.Default.Counter("server.drains")
	mQueueDepth      = obs.Default.Gauge("server.queue_depth")
	mQueueWaitNs     = obs.Default.Histogram("server.queue_wait_ns")
	mStatementNs     = obs.Default.Histogram("server.statement_ns")
	mEncodeNs        = obs.Default.Histogram("server.encode_ns")
)
