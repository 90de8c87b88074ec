// Package recycle holds the free lists a statement's operators take their
// workspace from — an executor run's spill store and evaluator, a Hashed or
// Segmented Sort's buckets and arrays, an external sort's tournament, an
// in-memory sort's scratch, a WHERE's mask, DISTINCT's key table, a
// cursor's batch and position lists, a plan-cache key buffer, a result
// stream's frame writer, frame reader and line reader — and give it back to
// when they end, so a warm process allocates per plan, not per row, bucket,
// run, spill file or frame.
//
// A List is a plain list and not a sync.Pool for the reason storage's
// arena pool is: what it holds must survive a GC between two statements,
// or the next one allocates it all again. It holds
// at most GOMAXPROCS items, the most runs that can be using one at once,
// and keeps the largest it has seen; an item in it holds no row, no page
// and no reader — whoever puts one clears it first.
package recycle

import (
	"runtime"
	"sync"
)

// maxItemBytes is the largest item a list keeps (32 MB): one huge statement
// must not pin its workspace for the life of the process.
const maxItemBytes = 32 << 20

// slots is read once: runtime.GOMAXPROCS takes the scheduler lock.
var slots = runtime.GOMAXPROCS(0)

// Keys are the buffers cache keys are rendered into, one per lookup — a
// plan-cache key, a shared-subplan key: a free list, not a sync.Pool, so
// that a GC — or the race detector, which makes a pool drop what it is
// given at random — never leaves a hit to allocate its key.
var Keys = NewList(func(b *[]byte) int64 { return int64(cap(*b)) })

// List is a free list of *T. The zero value is not usable; make one with
// NewList.
type List[T any] struct {
	mu    sync.Mutex
	free  []*T
	bytes func(*T) int64
}

var (
	listsMu sync.Mutex
	lists   []interface{ Idle() (int, int64) }
)

// NewList returns a list whose items retain bytes(item) bytes, and counts
// it in Idle. Lists are made once, in package variables.
func NewList[T any](bytes func(*T) int64) *List[T] {
	l := &List[T]{bytes: bytes}
	listsMu.Lock()
	defer listsMu.Unlock()
	lists = append(lists, l)
	return l
}

// Get takes the most recently returned item out of the list, or a new zero
// T when it is empty. The caller owns it until Put.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	last := len(l.free) - 1
	if last < 0 {
		return new(T)
	}
	x := l.free[last]
	l.free[last] = nil
	l.free = l.free[:last]
	return x
}

// GetFit takes the item that retains the fewest bytes among those fit
// accepts out of the list, or a new zero T when fit accepts none. The
// caller owns it until Put.
func (l *List[T]) GetFit(fit func(*T) bool) *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	best, least := -1, int64(0)
	for i, x := range l.free {
		if b := l.bytes(x); fit(x) && (best < 0 || b < least) {
			best, least = i, b
		}
	}
	if best < 0 {
		return new(T)
	}
	x := l.free[best]
	last := len(l.free) - 1
	l.free[best] = l.free[last]
	l.free[last] = nil
	l.free = l.free[:last]
	return x
}

// Put adds x, which the caller has cleared and no longer uses, to the list:
// in place of the smallest item when the list is full and that one is
// smaller, and not at all when x retains more than maxItemBytes.
func (l *List[T]) Put(x *T) {
	n := l.bytes(x)
	if n > maxItemBytes {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < slots {
		l.free = append(l.free, x)
		return
	}
	smallest, least := 0, l.bytes(l.free[0])
	for i, f := range l.free[1:] {
		if b := l.bytes(f); b < least {
			smallest, least = i+1, b
		}
	}
	if least < n {
		l.free[smallest] = x
	}
}

// Len returns how many items wait in the list.
func (l *List[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}

// Idle reports the items waiting in the list and the bytes they retain.
func (l *List[T]) Idle() (items int, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, x := range l.free {
		bytes += l.bytes(x)
	}
	return len(l.free), bytes
}

// Idle reports what every list holds: the items waiting for a run, and the
// bytes they retain.
func Idle() (items int, bytes int64) {
	listsMu.Lock()
	defer listsMu.Unlock()
	for _, l := range lists {
		n, b := l.Idle()
		items += n
		bytes += b
	}
	return items, bytes
}
