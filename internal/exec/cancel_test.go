package exec

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/paper"
)

// plannedQ7 plans the 5-step Q7 chain, giving the boundary checks plenty
// of boundaries.
func plannedQ7(t *testing.T, entry interface {
	CostParams(int, int) core.CostParams
}) *core.Plan {
	t.Helper()
	plan, err := core.CSO(paper.WFs(paper.Q7()), core.Unordered(),
		core.Options{Cost: entry.CostParams(1<<20, 4096)})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestRunContextCancelled: an already-cancelled context stops the chain
// before the first step.
func TestRunContextCancelled(t *testing.T) {
	table, entry := smallWebSales(2000)
	plan := plannedQ7(t, entry)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := RunContext(ctx, table, paper.Q7(), plan, Config{MemoryBytes: 1 << 20, BlockSize: 4096})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunContextDeadlineMidChain: a deadline that expires during the first
// step is honored at the next step boundary.
func TestRunContextDeadlineMidChain(t *testing.T) {
	table, entry := smallWebSales(20_000)
	plan := plannedQ7(t, entry)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, _, err := RunContext(ctx, table, paper.Q7(), plan, Config{MemoryBytes: 1 << 20, BlockSize: 4096})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestParallelRunContextCancelled: the partitioned path propagates
// cancellation from its sub-chains' step boundaries.
func TestParallelRunContextCancelled(t *testing.T) {
	table, entry := smallWebSales(5000)
	specs := paper.Q6() // both functions share WPK {item}: one parallel segment
	plan, err := core.CSO(paper.WFs(specs), core.Unordered(),
		core.Options{Cost: entry.CostParams(1<<20, 4096)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = RunChain(ctx, table, specs, plan, Config{MemoryBytes: 1 << 20, BlockSize: 4096, Parallelism: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
