//go:build race

package index

func init() { raceEnabled = true }
