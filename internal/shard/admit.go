package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/service"
)

// nodeGates admits the coordinator's statements on all their nodes or on
// none. A statement holds a slot on each node it runs on until it ends and
// opens its node streams all at once; admitted by each node alone, more
// concurrent statements than a node has slots could hold node 0's slots
// while they wait on node 1's and the other way round, until a deadline.
// So the coordinator keeps one service.Governor per node, of the slots and
// the queue bound the node reports (Snapshot.Slots, Snapshot.MaxQueue), and
// a statement takes its nodes' slots in shard order before its first
// fan-out: one order for all, so none waits in a cycle. A node whose queue
// is full refuses the statement with service.ErrOverloaded, as the node
// itself would.
type nodeGates struct {
	mu       sync.Mutex
	gates    []*service.Governor // per shard; nil until the node's Stats is read
	rejected atomic.Uint64       // statements refused with ErrOverloaded
}

// admit takes one slot on each of nodes first..first+n-1, in shard order —
// phase "queued" while it waits — and keeps their release for the
// statement's end (clusterTrace.release). Every node's bounds are known
// before the first slot is taken.
func (c *Cluster) admit(ctx context.Context, qt *clusterTrace, first, n int) error {
	gates, err := c.gates(ctx, first, n)
	if err != nil {
		return err
	}
	qt.Live().SetPhase("queued")
	for k, g := range gates {
		if _, err := g.Acquire(ctx); err != nil {
			releaseAll(gates[:k])
			if errors.Is(err, service.ErrOverloaded) {
				c.nodes.rejected.Add(1)
				err = fmt.Errorf("shard %d: %w", first+k, err)
			}
			return err
		}
	}
	qt.Live().SetPhase("executing")
	qt.release = sync.OnceFunc(func() { releaseAll(gates) })
	return nil
}

func releaseAll(gates []*service.Governor) {
	for _, g := range gates {
		g.Release()
	}
}

// gates returns the governors of nodes first..first+n-1, reading a node's
// bounds from its Stats the first time it is asked for.
func (c *Cluster) gates(ctx context.Context, first, n int) ([]*service.Governor, error) {
	gates := make([]*service.Governor, n)
	c.nodes.mu.Lock()
	copy(gates, c.nodes.gates[first:first+n])
	c.nodes.mu.Unlock()
	for k, g := range gates {
		if g != nil {
			continue
		}
		snap, err := c.shards[first+k].Stats(ctx)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", first+k, err)
		}
		gates[k] = c.observe(first+k, snap)
	}
	return gates, nil
}

// observe returns node i's governor, replacing it when the node reports
// other bounds than it was built with (a node restarted with another
// configuration). Cluster.Stats calls it for every node it reads. A
// statement that holds a replaced governor's slot gives it back there; until
// those statements end, the node can see more statements than it has slots.
func (c *Cluster) observe(i int, snap service.Snapshot) *service.Governor {
	c.nodes.mu.Lock()
	defer c.nodes.mu.Unlock()
	g := c.nodes.gates[i]
	if g == nil || g.Slots() != max(snap.Slots, 1) || g.MaxQueue() != max(snap.MaxQueue, 0) {
		g = service.NewGovernor(snap.Slots, snap.MaxQueue)
		c.nodes.gates[i] = g
	}
	return g
}

// slotsHeld counts the node slots statements hold at the coordinator now.
func (c *Cluster) slotsHeld() int {
	c.nodes.mu.Lock()
	defer c.nodes.mu.Unlock()
	n := 0
	for _, g := range c.nodes.gates {
		if g != nil {
			n += g.Held()
		}
	}
	return n
}
