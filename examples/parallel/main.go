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
	"context"
	"fmt"
	"log"
	"runtime"
	"sort"
	"time"

	"repro"
	"repro/internal/datagen"
	"repro/internal/paper"
	"repro/internal/storage"
)

// priceRank is the single-function workload: every row with its rank by
// price within its item.
const priceRank = `SELECT *, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sales_price DESC) AS price_rank FROM web_sales`

func main() {
	table := datagen.WebSales(datagen.WebSalesConfig{Rows: 60_000, Seed: 5})

	fmt.Printf("rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sales_price DESC), %d rows, GOMAXPROCS=%d\n\n",
		table.Len(), runtime.GOMAXPROCS(0))
	sweep(table, priceRank)

	// Part 2: the whole CSO-planned Q6 chain (two rank() functions sharing
	// PARTITION BY ws_item_sk).
	fmt.Printf("\nQ6 chain (2 window functions):\n\n")
	sweep(table, paper.Statements["Q6"])
}

// sweep runs the statement over table at Config.Parallelism 1, 2, 4 and 8
// and prints each degree's time and blocks, failing unless every degree
// returns degree 1's rows.
func sweep(table *storage.Table, stmt string) {
	var baseline string
	for _, degree := range []int{1, 2, 4, 8} {
		eng := windowdb.New(windowdb.Config{SortMemBytes: 4 << 20, Parallelism: degree})
		eng.Register("web_sales", table)
		start := time.Now()
		rows, err := eng.QueryContext(context.Background(), stmt)
		if err != nil {
			log.Fatal(err)
		}
		sum, n := checksum(rows)
		if n != table.Len() {
			log.Fatalf("degree %d returned %d rows for %d", degree, n, table.Len())
		}
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
			rows.Metrics().Exec.TotalBlocks(), sum[:12], status)
	}
}

// checksum drains the cursor into an order-insensitive digest of its rows,
// derived columns included, so any divergence between degrees is caught.
func checksum(rows *windowdb.Rows) (string, int) {
	var encoded []string
	for rows.Next() {
		encoded = append(encoded, string(storage.AppendTuple(nil, rows.Row())))
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	sort.Strings(encoded)
	h := uint64(14695981039346656037)
	for _, p := range encoded {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= 1099511628211
		}
	}
	return fmt.Sprintf("%016x", h), len(encoded)
}
