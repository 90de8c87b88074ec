package storage

// PoisonRewound switches on the overwriting of everything a TupleArena
// rewinds over and returns the function that switches it back off. Tests
// that use it must not run in parallel with other arena users.
func PoisonRewound() (restore func()) {
	poisonRewound = true
	return func() { poisonRewound = false }
}
