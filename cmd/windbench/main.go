// Command windbench regenerates the paper's evaluation (Section 6) on this
// repository's substrate: Figures 3–8, the plan Tables 4/6/8/10, the
// optimizer-overhead Table 11, the design-choice ablations (HS bucket count,
// the MFV bypass and SS's α choice), and the two Section 3.5 sweeps
// (in-process parallel degrees, in-process shards). What it prints is for
// reading; the shapes it shows are asserted in internal/bench's tests, and
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

type experiment struct {
	name string
	run  func(*run) error
}

// experiments is the one list of what windbench runs: -exp is validated
// against it, -h prints its names, and "all" runs it top to bottom.
var experiments = []experiment{
	// FS vs HS on Q1–Q3 across unit reorder memory.
	{"fig3", func(r *run) error { _, err := r.data().RunFig3(r.out); return err }},
	// FS vs HS vs SS on sorted and grouped input (Q4, Q5).
	{"fig4", func(r *run) error { _, err := r.data().RunFig4(r.out); return err }},
	// Tables 4, 6, 8, 10: the chain each scheme picks for Q6–Q9.
	{"plans", func(r *run) error { return r.data().PrintPlans(r.out) }},
	// Q6–Q9 under PSQL, ORCL, BFO and CSO.
	{"fig5", schemes("Q6")},
	{"fig6", schemes("Q7")},
	{"fig7", schemes("Q8")},
	{"fig8", schemes("Q9")},
	// Optimizer overhead by function count, -queries random queries a point.
	{"table11", func(r *run) error { _, err := bench.RunTable11(r.queries, r.out); return err }},
	{"ablation", func(r *run) error { _, err := r.data().RunAblations(r.out); return err }},
	// Section 3.5: Q6 at parallel degrees 1, 2, 4, 8, then over 1, 2, 4
	// in-process shards plus one HTTP round trip.
	{"parallel", func(r *run) error { _, err := r.data().RunParallel(r.out); return err }},
	{"sharded", func(r *run) error { _, err := r.data().RunSharded(r.out); return err }},
}

func schemes(query string) func(*run) error {
	return func(r *run) error { _, err := r.data().RunSchemes(query, r.out); return err }
}

func names() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.name
	}
	return out
}

// choose resolves a comma-separated -exp value to experiments in table
// order; "all" is the whole table, any other unknown name an error.
func choose(arg string) ([]experiment, error) {
	valid, wants := names(), map[string]bool{}
	for _, name := range strings.Split(arg, ",") {
		name = strings.ToLower(strings.TrimSpace(name))
		if name != "all" && !slices.Contains(valid, name) {
			return nil, fmt.Errorf("unknown experiment %q; valid: all, %s", name, strings.Join(valid, ", "))
		}
		wants[name] = true
	}
	var chosen []experiment
	for _, e := range experiments {
		if wants["all"] || wants[e.name] {
			chosen = append(chosen, e)
		}
	}
	return chosen, nil
}

func main() {
	var (
		exp       = flag.String("exp", "all", "comma-separated experiments: all|"+strings.Join(names(), "|"))
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
	for _, e := range chosen {
		if err := e.run(r); err != nil {
			fmt.Fprintf(os.Stderr, "windbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Fprintln(r.out)
	}
}
