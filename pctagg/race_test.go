//go:build race

package pctagg

func init() { raceEnabled = true }
