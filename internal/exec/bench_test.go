package exec

import (
	"context"
	"math"
	"testing"

	"repro/internal/attrs"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/window"
)

// BenchTable is the synthetic wide table the RunChain benchmarks share:
// twelve integer columns a..l. Exported (from this test file) for the
// sibling benchmark in package exec_test, which drives the same table
// through sql.Prepared.
func BenchTable() *storage.Table {
	const rows, wide = 50_000, 12
	cols := make([]storage.Column, wide)
	for i := range cols {
		cols[i] = storage.Column{Name: string(rune('a' + i)), Type: storage.TypeInt}
	}
	table := storage.NewTable(storage.NewSchema(cols...))
	table.Rows = make([]storage.Tuple, rows)
	for i := range table.Rows {
		t := make(storage.Tuple, wide)
		for c := range t {
			t[c] = storage.Int(int64((i*31 + c*7) % 97))
		}
		table.Rows[i] = t
	}
	return table
}

// BenchmarkRunChain measures the sequential chain executor in memory over a
// synthetic wide table. "two FS" is a two-step rank chain materialized as
// whole tuples (chainTable): both reorders, the in-tuple first column, the tail vector,
// and the whole-tuple copy, the chain released once the table is made;
// BenchmarkRunChainPrepared is the same chain drained through a cursor. "F1 shape"
// is frames_inmem's F1: one Full Sort (L = 0) and two framed aggregates into
// tail vectors, through RunChain and released as a cursor releases it, so
// B/op is what a statement's chain allocates once the arena pool is warm —
// its sort buffer and tails are the pool's.
func BenchmarkRunChain(b *testing.B) {
	table := BenchTable()
	pk := attrs.MakeSet(0)
	cfg := Config{MemoryBytes: 64 << 20}
	b.Run("two FS", func(b *testing.B) {
		specs := []window.Spec{
			{Kind: window.Rank, PK: pk, OK: attrs.AscSeq(1), Arg: -1, Name: "r1"},
			{Kind: window.Rank, PK: pk, OK: attrs.AscSeq(2), Arg: -1, Name: "r2"},
		}
		plan := &core.Plan{Steps: []core.Step{
			{WF: specs[0].WF(0), Reorder: core.ReorderFS, SortKey: pk.AscSeq().Concat(specs[0].OK)},
			{WF: specs[1].WF(1), Reorder: core.ReorderFS, SortKey: pk.AscSeq().Concat(specs[1].OK)},
		}}
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			chain, _, err := RunChain(ctx, table, specs, plan, cfg)
			if err != nil {
				b.Fatal(err)
			}
			chainTable(chain)
			chain.Release()
		}
	})
	b.Run("F1 shape", func(b *testing.B) {
		ok := attrs.AscSeq(1, 2)
		rows := func(preceding int64, end window.Bound) *window.Frame {
			return &window.Frame{Mode: window.Rows, Start: window.Bound{Type: window.Preceding, Offset: preceding}, End: end}
		}
		specs := []window.Spec{
			{Kind: window.Sum, PK: pk, OK: ok, Arg: 3, Name: "s10", Frame: rows(10, window.Bound{Type: window.CurrentRow})},
			{Kind: window.Avg, PK: pk, OK: ok, Arg: 3, Name: "a50", Frame: rows(50, window.Bound{Type: window.Following, Offset: 50})},
		}
		plan := &core.Plan{Steps: []core.Step{
			{WF: specs[0].WF(0), Reorder: core.ReorderFS, SortKey: pk.AscSeq().Concat(ok)},
			{WF: specs[1].WF(1), Reorder: core.ReorderNone},
		}}
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			chain, _, err := RunChain(ctx, table, specs, plan, cfg)
			if err != nil {
				b.Fatal(err)
			}
			chain.Release()
		}
	})
}

// BenchmarkRunChainSpill is BenchmarkRunChain's spilling sibling: the same
// table under the benchmark's chain_spill budget, M = floor(0.85*sqrt(B/2))
// blocks, through the chain CSO plans for three rank functions — a Hashed
// Sort whose every bucket is flushed, a Segmented Sort whose every unit
// sorts externally and a Full Sort with two intermediate merge passes —
// and through RunChain, released as a cursor would release it, so B/op is
// the spill path's once the arena pool is warm (pool blocks, readers and
// writers, decoded strings; not the row slabs) without a whole-table
// copy. blocks/op and comparisons/op are the paper's two cost currencies;
// neither may move when only allocation does.
func BenchmarkRunChainSpill(b *testing.B) {
	table := BenchTable()
	const blockSize = 8192
	mem := max(int(0.85*math.Sqrt(float64(table.ByteSize()/blockSize)/2)), 3) * blockSize
	entry := catalog.New().Register("t", table)
	pk := attrs.MakeSet(0)
	specs := []window.Spec{
		{Kind: window.Rank, PK: pk, PKOrder: pk.AscSeq(), OK: attrs.AscSeq(1), Arg: -1, Name: "r1"},
		{Kind: window.Rank, PK: pk, PKOrder: pk.AscSeq(), OK: attrs.AscSeq(2), Arg: -1, Name: "r2"},
		{Kind: window.Rank, OK: attrs.AscSeq(3), Arg: -1, Name: "r3"},
	}
	plan, err := core.CSO([]core.WF{specs[0].WF(0), specs[1].WF(1), specs[2].WF(2)}, core.Unordered(),
		core.Options{Cost: entry.CostParams(mem, blockSize)})
	if err != nil {
		b.Fatal(err)
	}
	kinds := map[core.ReorderKind]bool{}
	for _, step := range plan.Steps {
		kinds[step.Reorder] = true
	}
	if !kinds[core.ReorderFS] || !kinds[core.ReorderHS] || !kinds[core.ReorderSS] {
		b.Fatalf("plan %s lacks one of FS, HS, SS", plan)
	}
	cfg := Config{MemoryBytes: mem, BlockSize: blockSize, Distinct: entry.Distinct}
	ctx := context.Background()
	var blocks, comparisons int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain, m, err := RunChain(ctx, table, specs, plan, cfg)
		if err != nil {
			b.Fatal(err)
		}
		chain.Release()
		blocks += m.TotalBlocks()
		comparisons += m.Comparisons
	}
	b.ReportMetric(float64(blocks)/float64(b.N), "blocks/op")
	b.ReportMetric(float64(comparisons)/float64(b.N), "comparisons/op")
}

// BenchmarkPartitionRows measures the scatter/shuffle partitioning hash.
func BenchmarkPartitionRows(b *testing.B) {
	const rows = 100_000
	tuples := make([]storage.Tuple, rows)
	for i := range tuples {
		tuples[i] = storage.Tuple{storage.Int(int64(i % 1009)), storage.StringVal("payload"), storage.Float(float64(i))}
	}
	ids := []attrs.ID{0, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PartitionRows(tuples, ids, 4)
	}
}
