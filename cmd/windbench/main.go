// Command windbench regenerates the paper's evaluation (Section 6) on this
// repository's substrate: Figures 3–8, the plan Tables 4/6/8/10, the
// optimizer-overhead Table 11, and the design-choice ablations.
//
// Usage:
//
//	windbench -exp all                 # everything (default)
//	windbench -exp fig3 -rows 300000   # FS vs HS micro-benchmark, bigger table
//	windbench -exp fig5                # Q6 scheme comparison
//	windbench -exp plans               # Tables 4, 6, 8, 10
//	windbench -exp table11 -queries 5  # optimizer overheads
//	windbench -exp ablation
//	windbench -exp parallel            # parallel multi-window speedup sweep
//	windbench -exp sharded             # scatter-gather cluster scaleout sweep
//	windbench -exp shuffle             # key-divergent per-segment shuffle sweep
//	windbench -exp service -servdur 2s # query-service closed-loop load
//	windbench -exp service -arrival 25 -slo 2s  # + open-loop fixed-rate point with SLO attainment
//	windbench -exp share               # correlated-dashboard sharing A/B (subplan cache on vs off)
//	windbench -exp append              # append ingestion + incremental maintenance vs full recompute
//
// With -json PATH, the parallel, sharded, shuffle and service results
// (whichever of them ran) are additionally written as a bench.Trajectory
// artifact — the perf baseline CI records per change so later work has a
// recorded trajectory to diff against:
//
//	windbench -exp parallel,sharded,shuffle,service -json BENCH_pr5.json
//
// With -compare PATH, the run's results are additionally matched against
// the baseline artifact at PATH: every baseline point must have run and be
// no slower than the allowed -tolerance (default +25%), or windbench exits
// non-zero — the CI bench-regression gate:
//
//	windbench -exp shuffle -compare BENCH_baseline.json -tolerance 0.25
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: fig3|fig4|fig5|fig6|fig7|fig8|plans|table11|ablation|parallel|sharded|shuffle|service|share|append|all")
		rows      = flag.Int("rows", 120_000, "web_sales rows (paper: 72M at scale factor 100)")
		seed      = flag.Int64("seed", 0, "generator seed (0 = default)")
		blockSize = flag.Int("blocksize", 8192, "simulated page size in bytes")
		queries   = flag.Int("queries", 5, "random queries per point for table11")
		servDur   = flag.Duration("servdur", 2*time.Second, "service load duration per concurrency degree (also the open-loop arrival window)")
		servRows  = flag.Int("servrows", 10_000, "web_sales rows for the service load harness")
		arrival   = flag.Float64("arrival", 0, "open-loop arrival rate in qps: adds a fixed-rate point to -exp service (0 = closed-loop only)")
		slo       = flag.Duration("slo", 0, "latency SLO for the -arrival point: fails unless 95% of arrivals complete within it")
		jsonPath  = flag.String("json", "", "write the parallel/sharded/service results as a JSON trajectory artifact to this path")
		compare   = flag.String("compare", "", "compare this run's results against the baseline trajectory at this path; exits 1 on regression")
		tolerance = flag.Float64("tolerance", 0.25, "allowed fractional slowdown vs the -compare baseline (0.25 = +25%)")
	)
	flag.Parse()

	cfg := bench.Config{Rows: *rows, Seed: *seed, BlockSize: *blockSize}
	out := os.Stdout

	wants := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		wants[strings.TrimSpace(strings.ToLower(e))] = true
	}
	all := wants["all"]
	want := func(name string) bool { return all || wants[name] }

	needData := all || wants["fig3"] || wants["fig4"] || wants["fig5"] ||
		wants["fig6"] || wants["fig7"] || wants["fig8"] || wants["plans"] ||
		wants["ablation"] || wants["parallel"] || wants["sharded"] || wants["shuffle"]
	var d *bench.Dataset
	if needData {
		start := time.Now()
		fmt.Fprintf(out, "generating web_sales (%d rows) and its sorted/grouped variants...\n", *rows)
		d = bench.Build(cfg)
		fmt.Fprintf(out, "done in %v; B(web_sales) = %d blocks of %d bytes\n\n",
			time.Since(start).Round(time.Millisecond), d.Blocks, *blockSize)
	}

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "windbench: %v\n", err)
		os.Exit(1)
	}

	if want("plans") {
		if err := d.PrintPlans(out); err != nil {
			fail(err)
		}
	}
	if want("fig3") {
		if _, err := d.RunFig3(out); err != nil {
			fail(err)
		}
		fmt.Fprintln(out)
	}
	if want("fig4") {
		if _, err := d.RunFig4(out); err != nil {
			fail(err)
		}
		fmt.Fprintln(out)
	}
	for q, e := range map[string]string{"Q6": "fig5", "Q7": "fig6", "Q8": "fig7", "Q9": "fig8"} {
		if want(e) {
			if _, err := d.RunSchemes(q, out); err != nil {
				fail(err)
			}
			fmt.Fprintln(out)
		}
	}
	if want("table11") {
		if _, err := bench.RunTable11(*queries, out); err != nil {
			fail(err)
		}
		fmt.Fprintln(out)
	}
	if want("ablation") {
		if _, err := d.RunAblations(out); err != nil {
			fail(err)
		}
		fmt.Fprintln(out)
	}
	traj := bench.NewTrajectory(cfg)
	if want("parallel") {
		res, err := d.RunParallel(out)
		if err != nil {
			fail(err)
		}
		traj.Parallel = res
		fmt.Fprintln(out)
	}
	if want("sharded") {
		res, err := d.RunSharded(out)
		if err != nil {
			fail(err)
		}
		traj.Sharded = res
		fmt.Fprintln(out)
	}
	if want("shuffle") {
		res, err := d.RunShuffle(out)
		if err != nil {
			fail(err)
		}
		traj.Shuffle = res
		fmt.Fprintln(out)
	}
	if want("service") {
		scfg := bench.ServiceConfig{Rows: *servRows, Seed: *seed, Duration: *servDur}
		res, err := bench.RunService(scfg, out)
		if err != nil {
			fail(err)
		}
		traj.Service = res
		fmt.Fprintln(out)
		if *arrival > 0 {
			olres, err := bench.RunOpenLoop(bench.OpenLoopConfig{
				Rows: *servRows, Seed: *seed, Rate: *arrival, Duration: *servDur, SLO: *slo,
			}, out)
			if err != nil {
				fail(err)
			}
			traj.OpenLoop = []bench.OpenLoopResult{olres}
			fmt.Fprintln(out)
		}
	}
	if want("share") {
		res, err := bench.RunShare(bench.ShareConfig{Seed: *seed}, out)
		if err != nil {
			fail(err)
		}
		traj.Share = res
		fmt.Fprintln(out)
	}
	if want("append") {
		res, err := bench.RunAppend(bench.AppendConfig{Rows: *rows, Seed: *seed}, out)
		if err != nil {
			fail(err)
		}
		traj.Append = res
	}
	if *jsonPath != "" {
		if err := traj.Write(*jsonPath); err != nil {
			fail(err)
		}
		fmt.Fprintf(out, "trajectory artifact written to %s\n", *jsonPath)
	}
	if *compare != "" {
		base, err := bench.LoadTrajectory(*compare)
		if err != nil {
			fail(err)
		}
		pts, missing, err := bench.Compare(base, traj, *tolerance)
		if err != nil {
			fail(err)
		}
		fmt.Fprintln(out)
		if n := bench.ReportComparison(out, pts, missing, *tolerance); n > 0 {
			fmt.Fprintf(os.Stderr, "windbench: %d point(s) regressed beyond +%.0f%% of %s\n", n, *tolerance*100, *compare)
			os.Exit(1)
		}
		fmt.Fprintf(out, "all %d baseline point(s) within tolerance\n", len(pts))
	}
}
