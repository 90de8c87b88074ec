//go:build !race

package pagestore

// raceEnabled reports whether the race detector is on: a cycle of writing
// into released pages allocates one object more under it.
const raceEnabled = false
