package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/paper"
	"repro/internal/storage"
)

// ParallelResult is one degree measurement of the parallel multi-window
// scenario.
type ParallelResult struct {
	Query   string
	Degree  int
	Elapsed time.Duration
	Blocks  int64
	Speedup float64 // wall-clock vs degree 1
}

// parallelDegrees are the sweep points of the scenario; parallelReps is the
// per-degree repetition count (best-of).
var (
	parallelDegrees = []int{1, 2, 4, 8}
	parallelReps    = 5
)

// RunParallel measures exec.Chain.Run on the multi-window workload Q6
// (both functions share WPK {item}, so the whole CSO chain forms one
// parallel segment) at degrees 1, 2, 4 and 8. Two effects compound: with
// spare cores the partitions run concurrently, and — independent of core
// count — hash partitioning shrinks every reorder, cutting merge passes
// and comparisons (the memory point below makes that structural). The run
// verifies that every degree produces the sequential row multiset.
func (d *Dataset) RunParallel(w io.Writer) ([]ParallelResult, error) {
	specs := paper.Q6()
	ws := paper.WFs(specs)
	// The sort-based CSO(v1) chain (HS disabled) at the paper's "75MB"
	// scheme memory point: Hashed Sort is itself a partitioning algorithm,
	// so an HS chain already banks most of the data-partitioning benefit —
	// the sort-based variant is where generalized Section 3.5 parallelism
	// has something to win on any core count. At this M the degree-1 Full
	// Sort produces more initial runs than the merge fan-in and pays a
	// second materialized merge pass, while from degree 4 on each
	// partition merges in a single pass — half the spilled blocks (paid as
	// real temp-file I/O) plus a log-factor fewer comparisons.
	mem := d.SchemeMemSweep()[1]
	cfg := exec.Config{
		MemoryBytes: mem.Bytes(d.Cfg.BlockSize),
		BlockSize:   d.Cfg.BlockSize,
		Distinct:    d.Entry.Distinct,
		FileBacked:  true,
		TempDir:     os.TempDir(),
	}
	plan, err := core.CSO(ws, core.Unordered(), core.Options{Cost: d.costParams(mem), DisableHS: true})
	if err != nil {
		return nil, err
	}
	fprintf(w, "== Parallel multi-window execution: Q6 via CSO (%s), web_sales %d rows, M = %s ==\n",
		plan.PaperString(), d.Cfg.Rows, mem.Label)
	fprintf(w, "%-8s  %12s  %10s  %8s\n", "degree", "time", "blocks", "speedup")

	// Round-robin over the degrees, best of parallelReps per degree: the
	// minimum is the closest observable to the true cost on a time-shared
	// machine, and interleaving the degrees spreads slow phases of a noisy
	// host across all of them instead of biasing one. The structural effect
	// we are after (spill I/O vanishing with degree) is deterministic, and
	// so is each degree's result: the first rep's is fingerprinted.
	elapsed := make([]time.Duration, len(parallelDegrees))
	results := make([][]string, len(parallelDegrees))
	mets := make([]*exec.Metrics, len(parallelDegrees))
	for rep := 0; rep < parallelReps; rep++ {
		for i, degree := range parallelDegrees {
			// Collect the previous rep's garbage outside the timed region so
			// one degree's garbage doesn't bill the next.
			runtime.GC()
			cfg.Parallelism = degree
			start := time.Now()
			chain, m, err := exec.RunChain(context.Background(), d.WebSales, specs, plan, cfg)
			if err != nil {
				return nil, fmt.Errorf("parallel degree %d: %w", degree, err)
			}
			if e := time.Since(start); rep == 0 || e < elapsed[i] {
				elapsed[i], mets[i] = e, m
			}
			if rep == 0 {
				results[i] = canonicalChain(chain)
			}
			chain.Release()
		}
	}
	var out []ParallelResult
	for i, degree := range parallelDegrees {
		if i > 0 && !equalRows(results[i], results[0]) {
			return nil, fmt.Errorf("parallel degree %d changed the result multiset", degree)
		}
		res := ParallelResult{
			Query: "Q6", Degree: degree, Elapsed: elapsed[i],
			Blocks:  mets[i].TotalBlocks(),
			Speedup: float64(elapsed[0]) / float64(elapsed[i]),
		}
		out = append(out, res)
		fprintf(w, "%-8d  %12v  %10d  %7.2fx\n",
			degree, elapsed[i].Round(time.Millisecond), res.Blocks, res.Speedup)
	}
	return out, nil
}

// canonicalRows is an order-insensitive fingerprint of a result table.
func canonicalRows(t *storage.Table) []string {
	out := make([]string, t.Len())
	for i, r := range t.Rows {
		out[i] = string(storage.AppendTuple(nil, r))
	}
	slices.Sort(out)
	return out
}

// canonicalChain is canonicalRows over a chain's rows, read in place.
func canonicalChain(c *exec.Chain) []string {
	out := make([]string, c.Len())
	row := make(storage.Tuple, c.Schema.Len())
	for i := range out {
		for col := range row {
			row[col] = c.At(i, col)
		}
		out[i] = string(storage.AppendTuple(nil, row))
	}
	slices.Sort(out)
	return out
}

func equalRows(a, b []string) bool { return slices.Equal(a, b) }
