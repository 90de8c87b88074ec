//go:build race

package windowdb

func init() { raceEnabled = true }
