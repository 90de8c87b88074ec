// Package cache is the serving layers' one cache: a count-bounded,
// string-keyed LRU whose misses fill once however many lookups collide
// (singleflight), and whose entries stay only while their value is valid.
// An engine's plan cache (windowdb.Engine, shared by every front end over
// it) and a service's shared-subplan cache are its two instances.
//
// Validity is the owner's rule, asked of a value at two moments: when its
// fill completes — under the cache lock, so a fill that raced the change
// making it stale is served to its waiters but never cached — and by a
// sweep, which runs whenever the epoch the owner passes (its catalog
// generation) has moved and before every fill. A hit asks nothing: it is
// one map lookup.
package cache

import (
	"context"
	"errors"
	"sync"
)

// Dispositions: how Get served a lookup.
const (
	Miss   = "miss"   // the lookup led the fill
	Hit    = "hit"    // a completed entry served it
	Attach = "attach" // it waited on another lookup's fill
)

// errFillPanicked is what the attachers of a fill that panicked receive.
var errFillPanicked = errors.New("cache: fill panicked")

// Stats is the counter snapshot of a cache.
type Stats struct {
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
	// Hits were served by a completed entry, Attaches waited on another
	// lookup's fill, Misses led a fill.
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Attaches uint64 `json:"attaches"`
	// Invalidations are entries dropped because their value went stale (or,
	// when the epoch moved, because their fill was still running);
	// Evictions are entries dropped by LRU pressure; Fallbacks are attachers
	// handed their leader's error.
	Invalidations uint64 `json:"invalidations"`
	Evictions     uint64 `json:"evictions"`
	Fallbacks     uint64 `json:"fallbacks"`
}

// SharedRate returns (hits+attaches) / (hits+attaches+misses): the fraction
// of lookups that reused another lookup's fill. 0 when none happened.
func (s Stats) SharedRate() float64 {
	total := s.Hits + s.Attaches + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Attaches) / float64(total)
}

// Lookup names what Get looks for. Key is held in a buffer the caller
// reuses: a hit looks it up without converting it, and only a miss copies
// it into the string its entry keeps. Its first Group bytes are its group.
// Group and Match widen a miss on Key: the most recently used entry of the
// same group for which Match(its tag, Tag) holds serves the lookup
// instead, complete or still filling. Tag is recorded on the entry a miss
// creates.
type Lookup struct {
	Key   []byte
	Group int
	Tag   any
	Match func(have, want any) bool
}

// LRU is a cache of V values, safe for concurrent use. The valid function
// it was built with, and a lookup's Match, run under its lock and must not
// call back into it.
type LRU[V any] struct {
	mu    sync.Mutex
	cap   int
	valid func(V) bool
	items map[string]*entry[V]
	ring  entry[V] // sentinel of the recency ring: ring.next is the most recent entry
	epoch uint64   // the newest owner epoch seen; owners' epochs only grow
	st    Stats
}

type entry[V any] struct {
	key, group string
	tag        any
	prev, next *entry[V]
	done       chan struct{} // closed once the fill has finished
	ready      bool          // filled, valid and cached; guarded by the cache lock
	val        V
	err        error
}

// New returns an empty cache of at most capacity entries (at least one)
// that keeps a value while valid reports true for it.
func New[V any](capacity int, valid func(V) bool) *LRU[V] {
	c := &LRU[V]{cap: max(capacity, 1), valid: valid, items: make(map[string]*entry[V])}
	c.ring.prev, c.ring.next = &c.ring, &c.ring
	return c
}

// Get returns the value cached for q, filling it on a miss. epoch is the
// owner's catalog generation when the lookup began; a newer one than the
// cache has seen sweeps it first. Of concurrent lookups that miss on one key, one runs
// fill and the others attach and wait under their own ctx. The leader
// gets fill's value and error even when the value is not kept — a failed
// fill is removed at once, a stale one never cached — and so do its
// attachers, unless their ctx ends first.
func (c *LRU[V]) Get(ctx context.Context, q Lookup, epoch uint64, fill func() (V, error)) (V, string, error) {
	c.mu.Lock()
	c.observeLocked(epoch)
	e := c.items[string(q.Key)]
	group := q.Key[:q.Group]
	for x := c.ring.next; e == nil && q.Match != nil && x != &c.ring; x = x.next {
		if x.group == string(group) && q.Match(x.tag, q.Tag) {
			e = x
		}
	}
	return c.serveLocked(ctx, e, q, fill)
}

// serveLocked serves a lookup that found e — a hit or an attach — or, when
// e is nil, leads the fill of a new entry for q. It is called with the lock
// held and releases it.
func (c *LRU[V]) serveLocked(ctx context.Context, e *entry[V], q Lookup, fill func() (V, error)) (v V, disp string, err error) {
	if e != nil {
		c.unring(e)
		c.ringFront(e)
		if e.ready {
			c.st.Hits++
			c.mu.Unlock()
			return e.val, Hit, nil
		}
		c.st.Attaches++
		c.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			return v, Attach, ctx.Err()
		}
		if e.err != nil {
			c.mu.Lock()
			c.st.Fallbacks++
			c.mu.Unlock()
		}
		return e.val, Attach, e.err
	}

	c.sweepLocked(false)
	key := string(q.Key)
	e = &entry[V]{key: key, group: key[:q.Group], tag: q.Tag, done: make(chan struct{})}
	c.items[key] = e
	c.ringFront(e)
	c.st.Misses++
	if len(c.items) > c.cap {
		c.dropLocked(c.ring.prev)
		c.st.Evictions++
	}
	c.mu.Unlock()

	err = errFillPanicked
	defer c.complete(e, &v, &err)
	v, err = fill()
	return v, Miss, err
}

// complete publishes a fill's outcome and wakes its attachers. The value is
// cached only if its entry still is and the value is valid now: the one
// check that closes the race between a fill and the change that makes it
// stale.
func (c *LRU[V]) complete(e *entry[V], v *V, err *error) {
	c.mu.Lock()
	e.val, e.err = *v, *err
	if c.items[e.key] == e {
		switch {
		case e.err != nil:
			c.dropLocked(e)
		case !c.valid(e.val):
			c.dropLocked(e)
			c.st.Invalidations++
		default:
			e.ready = true
		}
	}
	c.mu.Unlock()
	close(e.done)
}

// observeLocked sweeps, fills in flight included, when epoch is newer than
// any the cache has seen. A lookup that read the generation just before a
// registration passes an older one, which must not sweep again.
func (c *LRU[V]) observeLocked(epoch uint64) {
	if epoch > c.epoch {
		c.epoch = epoch
		c.sweepLocked(true)
	}
}

// sweepLocked drops every cached value that is no longer valid and, with
// flights set (the epoch moved), every fill still running: it may have read
// the catalog before the move, so no later lookup may attach to it.
func (c *LRU[V]) sweepLocked(flights bool) {
	for e := c.ring.next; e != &c.ring; {
		next := e.next
		if e.ready && !c.valid(e.val) || !e.ready && flights {
			c.dropLocked(e)
			c.st.Invalidations++
		}
		e = next
	}
}

// Stats sweeps if epoch is newer, as a lookup would, then snapshots the
// counters: a registration's stale entries are never reported resident.
func (c *LRU[V]) Stats(epoch uint64) Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observeLocked(epoch)
	st := c.st
	st.Size, st.Capacity = len(c.items), c.cap
	return st
}

// dropLocked removes e from the cache. Lookups already holding it keep
// waiting on it; only later ones no longer find it.
func (c *LRU[V]) dropLocked(e *entry[V]) {
	c.unring(e)
	delete(c.items, e.key)
}

func (c *LRU[V]) unring(e *entry[V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *LRU[V]) ringFront(e *entry[V]) {
	e.prev, e.next = &c.ring, c.ring.next
	e.prev.next, e.next.prev = e, e
}
