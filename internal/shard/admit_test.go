package shard

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro"
	"repro/internal/service"
)

// heldNothing fails t unless the cluster holds nothing.
func heldNothing(t *testing.T, c *Cluster) {
	t.Helper()
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h := st.Held(); h != "" {
		t.Fatalf("every statement ended, and the cluster still holds %s", h)
	}
}

// drain reads a cursor to its end.
func drain(t *testing.T, rows *windowdb.Rows) {
	t.Helper()
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestOverloadedNodeRefusesAtTheCoordinator: over one-slot nodes with no
// queue, a second statement while the first holds the nodes' slots fails at
// once with service.ErrOverloaded — on the scatter and on the replica route
// — is counted Rejected, and takes nothing; once the first ends, the next
// statement is admitted.
func TestOverloadedNodeRefusesAtTheCoordinator(t *testing.T) {
	c, _ := streamCluster(t, 2, 2000, Config{})
	ctx := context.Background()
	first, err := c.QueryContext(ctx, q6SQL)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{q6SQL, "SELECT empnum FROM emptab"} {
		if _, err := c.QueryContext(ctx, q); !errors.Is(err, service.ErrOverloaded) {
			t.Fatalf("%s: err = %v, want service.ErrOverloaded", q, err)
		}
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected != 2 || st.NodeSlots != 2 {
		t.Fatalf("rejected %d, node slots held %d; want 2 and 2 (the first statement's)", st.Rejected, st.NodeSlots)
	}
	drain(t, first)
	heldNothing(t, c)
	next, err := c.QueryContext(ctx, q6SQL)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, next)
	heldNothing(t, c)
}

// TestQueuedStatementWaitsInPhaseQueued: over one-slot nodes with a queue,
// a statement whose nodes are busy waits in phase "queued" until its
// context ends, and leaves nothing behind.
func TestQueuedStatementWaitsInPhaseQueued(t *testing.T) {
	c, _ := localCluster(t, 2, 2000, service.Config{Slots: 1})
	ctx := context.Background()
	first, err := c.QueryContext(ctx, q6SQL)
	if err != nil {
		t.Fatal(err)
	}
	const waiter = "SELECT empnum FROM emptab"
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.QueryContext(wctx, waiter)
		done <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		phase := ""
		for _, q := range c.Registry().Snapshot() {
			if q.SQL == waiter {
				phase = q.Phase
			}
		}
		if phase == "queued" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the waiting statement is in phase %q, want queued", phase)
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	drain(t, first)
	heldNothing(t, c)
}

// TestFinalizedStatementHoldsNoNodeSlot: an ORDER BY statement over a
// sharded table drains its node streams into the coordinator's finalize
// before its cursor is handed out; from then on it holds no node slot, so
// over one-slot, no-queue nodes the next statement is admitted while the
// sorted cursor is still unread.
func TestFinalizedStatementHoldsNoNodeSlot(t *testing.T) {
	c, _ := streamCluster(t, 2, 2000, Config{})
	ctx := context.Background()
	sorted, err := c.QueryContext(ctx, q6SQL+` ORDER BY ws_item_sk, ws_order_number`)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.NodeSlots != 0 {
		t.Fatalf("an unread finalized cursor holds %d node slots", st.NodeSlots)
	}
	next, err := c.QueryContext(ctx, q6SQL)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, next)
	drain(t, sorted)
	heldNothing(t, c)
}
