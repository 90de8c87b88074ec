package storage

// PoisonRewound switches on the overwriting of everything a TupleArena
// rewinds over or recycles and returns the function that switches it back
// off. Tests that use it must not run in parallel with other arena users.
func PoisonRewound() (restore func()) {
	poisonRewound = true
	return func() { poisonRewound = false }
}

// ArenaPoolLists returns how many slab lists the arena pool holds.
func ArenaPoolLists() int {
	slabPool.mu.Lock()
	defer slabPool.mu.Unlock()
	return len(slabPool.free)
}

// EmptyArenaPool drops every slab list the arena pool holds, so a test
// starts from a process that has recycled nothing.
func EmptyArenaPool() {
	slabPool.mu.Lock()
	defer slabPool.mu.Unlock()
	slabPool.free = nil
}
