package engine

// UseReference runs every SELECT of e on the row-at-a-time reference engine
// (oracle_test.go) when on, on the batch pipeline when off: the one way the
// package's tests, internal and external, reach the oracle.
func UseReference(e *Engine, on bool) {
	if !on {
		e.ref.Store(nil)
		return
	}
	var r reference = oracle{}
	e.ref.Store(&r)
}
