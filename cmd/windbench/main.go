// Command windbench regenerates the paper's evaluation (Section 6) on this
// repository's substrate: Figures 3–8, the plan Tables 4/6/8/10, the
// optimizer-overhead Table 11, the design-choice ablations (HS bucket count
// and SS's α choice), and the two Section 3.5 sweeps (in-process parallel
// degrees, in-process shards). It prints the rows of
// internal/bench's one runner, whose counts internal/bench/testdata/
// paper.golden pins and whose shapes internal/bench's tests assert;
// performance claims are made on benchmark/.
//
// Usage:
//
//	windbench -exp all                 # every experiment, in table order (default)
//	windbench -exp fig3 -rows 300000   # FS vs HS micro-benchmark, bigger table
//	windbench -exp plans,fig5          # several, comma-separated
//	windbench -exp table11 -queries 5  # optimizer overheads
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
)

// run is what an experiment gets: the flags, the output, and the dataset,
// generated the first time an experiment asks for it.
type run struct {
	cfg     bench.Config
	queries int
	out     io.Writer
	d       *bench.Dataset
}

func (r *run) data() *bench.Dataset {
	if r.d == nil {
		start := time.Now()
		fmt.Fprintf(r.out, "generating web_sales (%d rows) and its sorted/grouped variants...\n", r.cfg.Rows)
		r.d = bench.Build(r.cfg)
		fmt.Fprintf(r.out, "done in %v; B(web_sales) = %d blocks of %d bytes\n\n",
			time.Since(start).Round(time.Millisecond), r.d.Blocks, r.cfg.BlockSize)
	}
	return r.d
}

// experiments is the one list of what windbench runs: -exp is validated
// against it, -h prints it, and "all" runs it top to bottom.
var experiments = []string{
	// FS vs HS on Q1–Q3 across unit reorder memory, then FS vs HS vs SS on
	// sorted and grouped input (Q4, Q5).
	"fig3", "fig4",
	// Tables 4, 6, 8, 10: the chain each scheme picks for Q6–Q9.
	"plans",
	// Q6–Q9 under PSQL, ORCL, BFO and CSO.
	"fig5", "fig6", "fig7", "fig8",
	// Optimizer overhead by function count, -queries random queries a point.
	"table11",
	// HS bucket count, SS's α choice.
	"ablation",
	// Section 3.5: Q6 at parallel degrees 1, 2, 4, 8, then over 1, 2, 4
	// in-process shards and 2 shards over HTTP.
	"parallel", "sharded",
}

// execute measures one experiment and prints its rows.
func (r *run) execute(name string) error {
	if name == "table11" {
		rows, err := bench.RunTable11(r.queries)
		if err != nil {
			return err
		}
		return bench.Print(r.out, nil, name, rows)
	}
	rows, err := r.data().Run(name)
	if err != nil {
		return err
	}
	return bench.Print(r.out, r.d, name, rows)
}

// choose resolves a comma-separated -exp value to experiments in table
// order; "all" is the whole table, any other unknown name an error.
func choose(arg string) ([]string, error) {
	wants := map[string]bool{}
	for _, name := range strings.Split(arg, ",") {
		name = strings.ToLower(strings.TrimSpace(name))
		if name != "all" && !slices.Contains(experiments, name) {
			return nil, fmt.Errorf("unknown experiment %q; valid: all, %s", name, strings.Join(experiments, ", "))
		}
		wants[name] = true
	}
	var chosen []string
	for _, e := range experiments {
		if wants["all"] || wants[e] {
			chosen = append(chosen, e)
		}
	}
	return chosen, nil
}

func main() {
	var (
		exp       = flag.String("exp", "all", "comma-separated experiments: all|"+strings.Join(experiments, "|"))
		rows      = flag.Int("rows", 120_000, "web_sales rows (paper: 72M at scale factor 100)")
		seed      = flag.Int64("seed", 0, "generator seed (0 = default)")
		blockSize = flag.Int("blocksize", 8192, "simulated page size in bytes")
		queries   = flag.Int("queries", 5, "random queries per point for table11")
	)
	flag.Parse()

	chosen, err := choose(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "windbench: %v\n", err)
		os.Exit(2)
	}
	r := &run{cfg: bench.Config{Rows: *rows, Seed: *seed, BlockSize: *blockSize}, queries: *queries, out: os.Stdout}
	for _, name := range chosen {
		if err := r.execute(name); err != nil {
			fmt.Fprintf(os.Stderr, "windbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Fprintln(r.out)
	}
}
