// Parallel: Section 3.5 of the paper — hash-partitioned parallel window
// evaluation, through Config.Parallelism (exec.Chain.Run partitions every
// chain segment whose functions share a partition key):
//
//  1. a single window function partitioned on its PARTITION BY attributes —
//     the paper's original formulation, a one-step chain;
//  2. a whole planned multi-window chain partitioned on the chain's common
//     partition key, so CSO-planned chains — the unit the paper optimizes —
//     scale too.
//
// The program evaluates each workload at several degrees, verifies all
// degrees agree, and reports timings. Wall-clock wins come from two
// compounding effects: spare cores run partitions concurrently, and every
// partitioned reorder is smaller than the unit memory, skipping external
// merge passes the degree-1 sort pays.
//
// Run with: go run ./examples/parallel
package main

import (
	"fmt"
	"log"
	"runtime"
	"sort"
	"time"

	"repro"
	"repro/internal/attrs"
	"repro/internal/datagen"
	"repro/internal/paper"
	"repro/internal/storage"
	"repro/internal/window"
)

func main() {
	table := datagen.WebSales(datagen.WebSalesConfig{Rows: 60_000, Seed: 5})
	spec := window.Spec{
		Name: "price_rank",
		Kind: window.Rank,
		Arg:  -1,
		PK:   attrs.MakeSet(attrs.ID(datagen.ColItem)),
		OK:   attrs.Seq{{Attr: attrs.ID(datagen.ColSalesPrice), Desc: true}},
	}

	fmt.Printf("rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sales_price DESC), %d rows, GOMAXPROCS=%d\n\n",
		table.Len(), runtime.GOMAXPROCS(0))
	sweep(table, []window.Spec{spec})

	// Part 2: the whole CSO-planned Q6 chain (two rank() functions sharing
	// PARTITION BY ws_item_sk).
	fmt.Printf("\nQ6 chain (2 window functions):\n\n")
	sweep(table, paper.Q6())
}

// sweep evaluates specs over table at Config.Parallelism 1, 2, 4 and 8 and
// prints each degree's time and blocks, failing unless every degree
// returns degree 1's rows.
func sweep(table *storage.Table, specs []window.Spec) {
	var baseline string
	for _, degree := range []int{1, 2, 4, 8} {
		eng := windowdb.New(windowdb.Config{SortMemBytes: 4 << 20, Parallelism: degree})
		eng.Register("web_sales", table)
		start := time.Now()
		out, metrics, err := eng.EvaluateWindows("web_sales", specs)
		if err != nil {
			log.Fatal(err)
		}
		sum := checksum(out)
		status := "baseline"
		if baseline == "" {
			baseline = sum
		} else if sum == baseline {
			status = "matches degree 1"
		} else {
			log.Fatalf("degree %d produced different results", degree)
		}
		fmt.Printf("degree %d: %8v  %6d blocks  checksum %s  (%s)\n",
			degree, time.Since(start).Round(time.Millisecond),
			metrics.TotalBlocks(), sum[:12], status)
	}
}

// checksum produces an order-insensitive digest of the full rows, derived
// columns included, so any divergence between degrees is caught.
func checksum(t *storage.Table) string {
	pairs := make([]string, t.Len())
	for i, row := range t.Rows {
		pairs[i] = string(storage.AppendTuple(nil, row))
	}
	sort.Strings(pairs)
	h := uint64(14695981039346656037)
	for _, p := range pairs {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= 1099511628211
		}
	}
	return fmt.Sprintf("%016x", h)
}
