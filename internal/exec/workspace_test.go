package exec

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/attrs"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/pagestore"
	"repro/internal/paper"
	"repro/internal/recycle"
	"repro/internal/window"
)

// cancelledAfter is a context whose Err reports it cancelled from its
// (n+1)st call on: a run's (n+1)st step boundary.
type cancelledAfter struct {
	context.Context
	n int
}

func (c *cancelledAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestEveryEndingReturnsTheWorkspace — a run gives back everything it
// borrowed however it ends: read to its end, cancelled at a step boundary
// after a spilling Hashed Sort, or failed in that sort's build because its
// spill directory is gone. Every free list then holds what it held before
// the run, no block is still taken from the pool, and the idle workspace
// pins no row. Run it with -race.
func TestEveryEndingReturnsTheWorkspace(t *testing.T) {
	table := datagen.WebSales(datagen.WebSalesConfig{Rows: 4000, Seed: 2, PadBytes: 16})
	item, warehouse := attrs.MakeSet(paper.Item), attrs.MakeSet(paper.Warehouse)
	specs := []window.Spec{
		{Name: "r0", Kind: window.Rank, Arg: -1, PK: warehouse, OK: attrs.AscSeq(paper.Time)},
		{Name: "r1", Kind: window.Rank, Arg: -1, PK: item, OK: attrs.AscSeq(paper.Date)},
		{Name: "r2", Kind: window.DenseRank, Arg: -1, PK: item, OK: attrs.AscSeq(paper.Date)},
	}
	wfs := paper.WFs(specs)
	// L = 1: the Hashed Sort's step extends the rows, the Full Sort's and
	// the last evaluate into tails.
	plan := &core.Plan{Scheme: "manual", Steps: []core.Step{
		{WF: wfs[0], Reorder: core.ReorderHS, HashKey: warehouse, SortKey: attrs.AscSeq(paper.Warehouse, paper.Time)},
		{WF: wfs[1], Reorder: core.ReorderFS, SortKey: attrs.AscSeq(paper.Item, paper.Date)},
		{WF: wfs[2]},
	}}
	cfg := Config{MemoryBytes: 32 << 10, BlockSize: 4096, HSBuckets: 8}
	drain := func(ctx context.Context, cfg Config) error {
		chain, m, err := RunChain(ctx, table, specs, plan, cfg)
		if err != nil {
			return err
		}
		defer chain.Release()
		if m.TotalBlocks() == 0 {
			t.Fatal("the chain did not spill")
		}
		return nil
	}
	if err := drain(context.Background(), cfg); err != nil { // fills the lists
		t.Fatal(err)
	}
	items, _ := recycle.Idle()
	_, held := pagestore.PoolCounters()

	for _, ending := range []struct {
		name string
		run  func() error
		ok   func(error) bool
	}{
		{"drained", func() error { return drain(context.Background(), cfg) }, func(err error) bool { return err == nil }},
		{"cancelled after the Hashed Sort", func() error {
			return drain(&cancelledAfter{Context: context.Background(), n: 1}, cfg)
		}, func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"failed in the Hashed Sort's build", func() error {
			gone := cfg
			gone.FileBacked, gone.TempDir = true, filepath.Join(t.TempDir(), "gone")
			return drain(context.Background(), gone)
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "HS reorder") }},
	} {
		if err := ending.run(); !ending.ok(err) {
			t.Fatalf("%s: err = %v", ending.name, err)
		}
		if now, _ := recycle.Idle(); now != items {
			t.Errorf("%s: the free lists hold %d items, %d before the run", ending.name, now, items)
		}
		if _, now := pagestore.PoolCounters(); now != held {
			t.Errorf("%s: %d blocks not handed back", ending.name, now-held)
		}
		idle := make([]*workspace, workspaces.Len())
		for i := range idle {
			idle[i] = workspaces.Get()
		}
		for _, w := range idle {
			if w.rows.rows != nil || len(w.rows.starts)+len(w.rows.spare) != 0 {
				t.Errorf("%s: an idle workspace holds %d rows and %d segment starts", ending.name, len(w.rows.rows), len(w.rows.starts)+len(w.rows.spare))
			}
			workspaces.Put(w)
		}
	}
}
