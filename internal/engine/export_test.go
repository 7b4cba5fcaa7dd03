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

// DirectCells is the most cells a group directory may have for a fold over
// rows input rows: past it the fold's key takes the hash route.
func DirectCells(rows int) int { return directCells(rows) }
