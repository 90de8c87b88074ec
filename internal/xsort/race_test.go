//go:build race

package xsort

func init() { raceEnabled = true }
