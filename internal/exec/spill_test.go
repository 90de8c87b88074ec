package exec

import (
	"context"
	"os"
	"strings"
	"testing"

	"repro/internal/attrs"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/pagestore"
	"repro/internal/paper"
	"repro/internal/storage"
	"repro/internal/window"
)

// TestFailedChainReleasesSpillFiles — a chain whose window evaluation fails
// mid-stream, while the Hashed Sort feeding it still holds flushed buckets
// it has not emitted, gives all of them up: the file backend leaves its
// directory empty, the memory backend hands every page back to the pool.
func TestFailedChainReleasesSpillFiles(t *testing.T) {
	table := datagen.WebSales(datagen.WebSalesConfig{Rows: 3000, Seed: 9, ItemDistinct: 40, PadBytes: 24})
	// One quantity is a string: sum() fails on the partition that holds it.
	bad := table.Rows[0].Clone()
	bad[paper.Quantity] = storage.StringVal("seven")
	table.Rows[0] = bad
	item := attrs.MakeSet(paper.Item)
	specs := []window.Spec{
		{Name: "qty", Kind: window.Sum, Arg: paper.Quantity, PK: item, OK: attrs.AscSeq(paper.Date)},
		{Name: "r", Kind: window.Rank, Arg: -1, PK: item, OK: attrs.AscSeq(paper.Time)},
	}
	ws := paper.WFs(specs)
	plan := &core.Plan{Scheme: "test", Steps: []core.Step{
		{WF: ws[0], Reorder: core.ReorderHS, HashKey: item, SortKey: attrs.AscSeq(paper.Item, paper.Date)},
		{WF: ws[1], Reorder: core.ReorderFS, SortKey: attrs.AscSeq(paper.Item, paper.Time)},
	}}
	for _, fileBacked := range []bool{true, false} {
		dir := t.TempDir()
		cfg := Config{MemoryBytes: 8 << 10, BlockSize: 1024, HSBuckets: 8, FileBacked: fileBacked, TempDir: dir}
		_, held := pagestore.PoolCounters()
		_, m, err := RunChain(context.Background(), table, specs, plan, cfg)
		if err == nil || !strings.Contains(err.Error(), "non-numeric") {
			t.Fatalf("file backed %v: err = %v (metrics %+v), want the sum to fail", fileBacked, err, m)
		}
		left, rerr := os.ReadDir(dir)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if len(left) != 0 {
			t.Errorf("file backed %v: %d spill files left behind, first %s", fileBacked, len(left), left[0].Name())
		}
		if _, after := pagestore.PoolCounters(); after != held {
			t.Errorf("file backed %v: %d blocks not handed back to the pool", fileBacked, after-held)
		}
	}
}
