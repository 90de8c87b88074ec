package storage

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
