package stream

// PoisonReused switches on the overwriting of every vector a Batch hands
// out again and returns the function that switches it back off. Tests that
// use it must not run in parallel with other batch users.
func PoisonReused() (restore func()) {
	poisonReused = true
	return func() { poisonReused = false }
}
