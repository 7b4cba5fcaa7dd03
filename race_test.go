//go:build race

package repro_test

func init() { raceEnabled = true }
