// Command benchmark is the repository's performance benchmark: five named
// workloads over the public Queryer backends, the end-to-end metrics a
// user of each backend pays, and a ladder of per-layer metrics measured by
// calling each package's exported entry points from here. BENCHMARK.json
// at the repository root declares it; README.md in this directory explains
// the names.
//
//	bash benchmark/run.sh --workload chain_spill --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh -runs 10 -out benchmark/out/a.json   # every workload, timed and traced
//	bash benchmark/run.sh compare benchmark/out/a.json benchmark/out/b.json
//	bash benchmark/run.sh manifest                             # prints BENCHMARK.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:])
		case "groundwork":
			return groundworkMain(args[1:])
		case "manifest":
			data, _ := json.MarshalIndent(buildManifest(), "", "  ") // static tables of strings and numbers
			fmt.Println(string(data))
			return 0
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload and end with the contract's JSON line (default: all five, each in its own process)")
	seed := fs.Int64("seed", defaultSeed, "workload seed: fixture and append stream are generated from it")
	seconds := fs.Float64("seconds", runSeconds, "length of the timed run")
	traced := fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	runs := fs.Int("runs", 1, "without -workload: how many times to run every workload (run i uses seed+i)")
	out := fs.String("out", "", "without -workload: write every run's full result to this file, for `compare`")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	outDir := filepath.Join("benchmark", "out")
	if *workload == "" {
		return runAll(*seed, *seconds, *runs, *out, outDir)
	}

	cfg := runConfig{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traced != 0,
		Sizes: defaultSizes(*workload), OutDir: outDir}
	ctx := context.Background()
	var r *result
	var err error
	if cfg.Trace {
		r, err = runTraced(ctx, cfg)
	} else {
		var g *groundwork
		if g, err = groundworkInChild(ctx, cfg); err == nil {
			r, err = runTimed(ctx, cfg, g)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := writeResult(outDir, r); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	report(os.Stdout, r)
	fmt.Println(contractLine(r))
	if !r.Correct {
		return 1
	}
	return 0
}

// groundworkMain is the child process of a timed run: the reference pass
// and the first SetupReps/2 of the workload's set-ups (the timed process
// does one before its loop and the rest after it), reported as one JSON
// object on standard output.
func groundworkMain(args []string) int {
	fs := flag.NewFlagSet("groundwork", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to lay the groundwork for")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := runConfig{Workload: *workload, Seed: *seed, Sizes: defaultSizes(*workload)}
	g, err := layGroundwork(context.Background(), cfg, cfg.Sizes.SetupReps/2)
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(g)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// resultSet is the file `-out` writes and `compare` reads.
type resultSet struct {
	Runs []*result `json:"runs"`
}

// runAll runs every workload, timed then traced, each in a child process
// of this same binary so CPU time and peak memory are per workload.
func runAll(seed int64, seconds float64, runs int, outFile, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	var set resultSet
	status := 0
	for i := 0; i < runs; i++ {
		for _, w := range workloadSpecs {
			for tr, mode := range []string{"timed", "traced"} {
				cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(seed+int64(i), 10),
					"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(tr))
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				resultPath := filepath.Join(outDir, "result-"+w.Name+"-"+mode+".json")
				_ = os.Remove(resultPath) // a child that dies must not leave the previous run's result to be read
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s %s: %v\n", w.Name, mode, err)
					status = 1
				}
				data, err := os.ReadFile(resultPath)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s %s left no result: %v\n", w.Name, mode, err)
					status = 1
					continue
				}
				r := &result{}
				if err := json.Unmarshal(data, r); err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s %s: %v\n", w.Name, mode, err)
					status = 1
					continue
				}
				set.Runs = append(set.Runs, r)
				fmt.Println()
			}
		}
	}
	if outFile != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(outFile, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return status
}
