package service

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrOverloaded rejects a query when every execution slot is busy and the
// admission queue is full. It is the service's typed backpressure signal;
// the HTTP layer maps it to 429. Test with errors.Is.
var ErrOverloaded = errors.New("service: overloaded, admission queue full")

// Governor is the admission controller: a semaphore of unit-memory
// execution slots plus a bounded wait queue. Each in-flight execution
// holds one slot, so at most cap(slots) chains run concurrently and each
// can assume the full unit reorder memory M — N simultaneous queries
// share the global budget honestly instead of each pretending to own M.
// A cluster coordinator keeps one per node, sized from the node's
// Snapshot.Slots and Snapshot.MaxQueue.
type Governor struct {
	slots    chan struct{}
	maxQueue int64
	waiting  atomic.Int64
}

// NewGovernor returns a governor of slots slots (at least one) and at most
// maxQueue waiters (none when negative).
func NewGovernor(slots, maxQueue int) *Governor {
	if slots < 1 {
		slots = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Governor{slots: make(chan struct{}, slots), maxQueue: int64(maxQueue)}
}

// Slots returns the concurrent-execution bound.
func (g *Governor) Slots() int { return cap(g.slots) }

// MaxQueue returns the bound on waiters.
func (g *Governor) MaxQueue() int { return int(g.maxQueue) }

// QueueDepth returns the number of queries currently waiting for a slot.
func (g *Governor) QueueDepth() int64 { return g.waiting.Load() }

// Held returns the number of slots claimed now.
func (g *Governor) Held() int { return len(g.slots) }

// Acquire claims one execution slot, queueing when all are busy. A query
// that cannot even enter the queue (maxQueue waiters already) fails fast
// with ErrOverloaded; a queued query that is cancelled or times out
// returns ctx.Err(). queued reports whether the query waited.
func (g *Governor) Acquire(ctx context.Context) (queued bool, err error) {
	select {
	case g.slots <- struct{}{}:
		return false, nil
	default:
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if g.waiting.Add(1) > g.maxQueue {
		g.waiting.Add(-1)
		return false, ErrOverloaded
	}
	defer g.waiting.Add(-1)
	select {
	case g.slots <- struct{}{}:
		return true, nil
	case <-ctx.Done():
		return true, ctx.Err()
	}
}

// Release returns a slot claimed by Acquire.
func (g *Governor) Release() { <-g.slots }
