package exec

import (
	"testing"

	"repro/internal/attrs"
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

// BenchmarkRunChain measures the sequential chain executor on a two-step
// rank chain over a synthetic wide table through the materializing Run:
// both reorders, the in-tuple first column, the tail vector, and the
// whole-tuple copy Run's contract costs. BenchmarkRunChainPrepared is the
// other side of that wrapper.
func BenchmarkRunChain(b *testing.B) {
	table := BenchTable()
	pk := attrs.MakeSet(0)
	specs := []window.Spec{
		{Kind: window.Rank, PK: pk, OK: attrs.AscSeq(1), Arg: -1, Name: "r1"},
		{Kind: window.Rank, PK: pk, OK: attrs.AscSeq(2), Arg: -1, Name: "r2"},
	}
	plan := &core.Plan{Steps: []core.Step{
		{WF: specs[0].WF(0), Reorder: core.ReorderFS, SortKey: pk.AscSeq().Concat(specs[0].OK)},
		{WF: specs[1].WF(1), Reorder: core.ReorderFS, SortKey: pk.AscSeq().Concat(specs[1].OK)},
	}}
	cfg := Config{MemoryBytes: 64 << 20}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(table, specs, plan, cfg); err != nil {
			b.Fatal(err)
		}
	}
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
		partitionRows(tuples, ids, 4)
	}
}
