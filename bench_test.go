// Package windowdb_test: an external test package so this benchmark can
// depend on internal/bench, which itself builds on the public windowdb
// facade.
package windowdb_test

import (
	"os"
	"strconv"
	"testing"

	"repro/internal/bench"
)

// BenchmarkPaper runs each experiment of the paper's Section 6 evaluation
// once per iteration, through the one runner cmd/windbench prints and
// internal/bench's TestPaperGolden pins, at a CI-friendly scale (set
// BENCH_ROWS to enlarge; cmd/windbench runs the full-scale sweeps). Beside
// time it reports the rows' summed spill blocks and comparisons per
// iteration, which repeat exactly. Operator and window-function throughput
// are measured per layer by benchmark/ (reorder.*_ms, window.*_ns_per_row).
func BenchmarkPaper(b *testing.B) {
	rows := 20_000
	if v, err := strconv.Atoi(os.Getenv("BENCH_ROWS")); err == nil && v > 0 {
		rows = v
	}
	d := bench.Build(bench.Config{Rows: rows, BlockSize: 4096})
	for _, exp := range bench.Experiments {
		b.Run(exp, func(b *testing.B) {
			var blocks, cmps int64
			for i := 0; i < b.N; i++ {
				out, err := d.Run(exp)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range out {
					blocks, cmps = blocks+r.Blocks, cmps+r.Comparisons
				}
			}
			b.ReportMetric(float64(blocks)/float64(b.N), "blocks/op")
			b.ReportMetric(float64(cmps)/float64(b.N), "cmps/op")
		})
	}
}
