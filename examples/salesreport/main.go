// Salesreport: a multi-window analytic query over the TPC-DS-like
// web_sales table, planned under all four optimization schemes of the
// paper's Section 6 (CSO, BFO, ORCL, PSQL).
//
// The query computes, for every sale, three rankings with different
// PARTITION BY / ORDER BY combinations — the workload shape that motivates
// cover-set optimization: a naive engine sorts the table once per window
// function, while CSO shares reorderings across compatible functions and
// replaces full sorts with segmented sorts.
//
// Run with: go run ./examples/salesreport
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/datagen"
	"repro/internal/sql"
)

const query = `
	SELECT ws_item_sk, ws_sold_date_sk, ws_quantity,
	       rank()       OVER (PARTITION BY ws_item_sk ORDER BY ws_sales_price DESC) AS price_rank_in_item,
	       dense_rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk)     AS day_seq_in_item,
	       sum(ws_quantity) OVER (PARTITION BY ws_item_sk, ws_sold_date_sk)         AS qty_item_day
	FROM web_sales
	ORDER BY ws_item_sk, price_rank_in_item
	LIMIT 12`

func main() {
	table := datagen.WebSales(datagen.WebSalesConfig{Rows: 30_000, Seed: 11})

	fmt.Println("query:")
	fmt.Println(query)
	var reference string
	for _, scheme := range []sql.Scheme{windowdb.SchemeCSO, windowdb.SchemeBFO, windowdb.SchemeORCL, windowdb.SchemePSQL} {
		eng := windowdb.New(windowdb.Config{
			Scheme:       scheme,
			SortMemBytes: 1 << 20, // 1 MB unit reorder memory: sorts must spill
		})
		eng.Register("web_sales", table)
		res, err := eng.Query(query)
		if err != nil {
			log.Fatalf("%s: %v", scheme, err)
		}
		if res.Table.Len() != 12 {
			log.Fatalf("%s: %d rows, want the LIMIT's 12", scheme, res.Table.Len())
		}
		fs, hs, ss := res.Plan.ReorderCounts()
		fmt.Printf("\n%-5s chain: %s\n", scheme, res.Plan.PaperString())
		fmt.Printf("      reorders: %d FS, %d HS, %d SS; spill I/O %d blocks; %v\n",
			fs, hs, ss, res.Exec.TotalBlocks(), res.Exec.Elapsed.Round(1e6))
		out := sql.FormatTable(res.Table, 0)
		if reference == "" {
			reference = out
			fmt.Println("\nresult (identical under every scheme):")
			fmt.Print(out)
		} else if out != reference {
			log.Fatalf("%s produced different results!", scheme)
		}
	}
}
