// Quickstart: the paper's Example 1, end to end, on the streaming cursor
// API.
//
// Builds the 10-row emptab relation, runs the introductory window query —
// each employee's salary rank within their department and across the whole
// company — scans the Rows cursor as the engine yields it, and prints the
// window-function chain the cover-set optimizer produced (from the
// post-drain metrics). It exits non-zero unless the rows are the paper's.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"slices"
	"strings"

	"repro"
	"repro/internal/datagen"
)

// sample is Example 1's output as the paper prints it ("-" is NULL).
var sample = []string{
	"4  1  78000  1  3",
	"5  1  75000  2  4",
	"9  1  53000  3  7",
	"7  2  51000  1  8",
	"3  2  -  2  9",
	"6  3  79000  1  2",
	"10  3  75000  2  4",
	"8  3  55000  3  6",
	"2  -  84000  1  1",
	"1  -  -  2  9",
}

func main() {
	eng := windowdb.New(windowdb.Config{})
	eng.Register("emptab", datagen.Emptab())

	rows, err := eng.QueryContext(context.Background(), `
		SELECT empnum, dept, salary,
		       rank() OVER (PARTITION BY dept ORDER BY salary DESC NULLS LAST) AS rank_in_dept,
		       rank() OVER (ORDER BY salary DESC NULLS LAST) AS globalrank
		FROM emptab
		ORDER BY dept NULLS LAST, rank_in_dept`)
	if err != nil {
		log.Fatal(err)
	}
	defer rows.Close()

	fmt.Println("Example 1 of the paper — sample output:")
	fmt.Println(strings.ToUpper(strings.Join(rows.Columns(), "  ")))
	var lines []string
	for rows.Next() {
		cells := make([]string, 0, len(rows.Columns()))
		for _, v := range rows.Row() {
			cells = append(cells, v.String())
		}
		lines = append(lines, strings.Join(cells, "  "))
		fmt.Println(lines[len(lines)-1])
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	if !slices.Equal(lines, sample) {
		log.Fatalf("the rows differ from the paper's sample output:\n%s", strings.Join(sample, "\n"))
	}

	// Post-drain metrics carry the plan and the executor's I/O accounting.
	m := rows.Metrics()
	fmt.Printf("\nwindow-function chain (%s): %s\n", m.Plan.Scheme, m.Chain)
	fmt.Printf("spill I/O: %d blocks (10-row table: everything stays in memory)\n",
		m.Exec.TotalBlocks())
}
