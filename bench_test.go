// Package windowdb_test: an external test package so these benchmarks can
// depend on internal/bench, which itself builds on the public windowdb
// facade (the serving harness wraps an Engine in internal/service).
package windowdb_test

// Benchmarks regenerating every table and figure of the paper's Section 6
// (one benchmark family per artifact) plus operator-level and ablation
// benchmarks. The full-scale sweeps with printed tables live in
// cmd/windbench; these benchmarks exercise the same code paths at a
// CI-friendly scale (set BENCH_ROWS to enlarge).
//
// Mapping:
//
//	BenchmarkFig3/*     — Figure 3 (FS vs HS micro-benchmark, Q1–Q3)
//	BenchmarkFig4/*     — Figure 4 (SS vs FS/HS, Q4–Q5)
//	BenchmarkFig5/*     — Figure 5 (Q6 schemes, incl. CSO(v1)/CSO(v2))
//	BenchmarkFig6/*     — Figure 6 (Q7 schemes)
//	BenchmarkFig7/*     — Figure 7 (Q8 schemes)
//	BenchmarkFig8/*     — Figure 8 (Q9 schemes)
//	BenchmarkTable11/*  — Table 11 (optimization overheads)
//	BenchmarkAblation*  — DESIGN.md §5 design-choice ablations
//	BenchmarkOperators/* — raw reordering operator throughput

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/attrs"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/paper"
	"repro/internal/storage"
	"repro/internal/window"
)

var (
	benchOnce sync.Once
	benchData *bench.Dataset
)

func dataset(b *testing.B) *bench.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		rows := 20_000
		if s := os.Getenv("BENCH_ROWS"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				rows = v
			}
		}
		benchData = bench.Build(bench.Config{Rows: rows, BlockSize: 4096})
	})
	return benchData
}

// microPoints picks a small, a middle and a large memory point.
func microPoints(d *bench.Dataset) []bench.MemPoint {
	sweep := d.MicroMemSweep()
	return []bench.MemPoint{sweep[0], sweep[3], sweep[7]}
}

func runSingleOp(b *testing.B, d *bench.Dataset, tableName string, spec window.Spec,
	op core.ReorderKind, mem bench.MemPoint, in core.Props, mutate func(*exec.Config)) {
	b.Helper()
	entry, err := d.Catalog.Lookup(tableName)
	if err != nil {
		b.Fatal(err)
	}
	wf := spec.WF(0)
	step := core.Step{WF: wf, Reorder: op, In: in}
	switch op {
	case core.ReorderFS:
		step.SortKey = wf.PK.AscSeq().Concat(wf.OK)
		step.Out = core.TotallyOrdered(step.SortKey)
	case core.ReorderHS:
		step.SortKey = wf.PK.AscSeq().Concat(wf.OK)
		step.HashKey = wf.PK
		step.Out = core.Props{X: wf.PK, Y: step.SortKey}
	case core.ReorderSS:
		choice, ok := core.PlanSS(in, wf)
		if !ok {
			b.Fatalf("not SS-reorderable")
		}
		step.SortKey, step.Alpha, step.Beta, step.Out = choice.Target, choice.Alpha, choice.Beta, choice.Out
	}
	plan := &core.Plan{Scheme: op.String(), Steps: []core.Step{step}}
	cfg := exec.Config{
		MemoryBytes: mem.Bytes(d.Cfg.BlockSize),
		BlockSize:   d.Cfg.BlockSize,
		Distinct:    entry.Distinct,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain, _, err := exec.RunChain(context.Background(), entry.Table(), []window.Spec{spec}, plan, cfg)
		if err != nil {
			b.Fatal(err)
		}
		chain.Release()
	}
	b.SetBytes(entry.ByteSize())
}

// BenchmarkFig3 — Figure 3: FS vs HS on Q1/Q2/Q3 across memory points.
func BenchmarkFig3(b *testing.B) {
	d := dataset(b)
	for _, q := range paper.MicroQueries()[:3] {
		for _, op := range []core.ReorderKind{core.ReorderFS, core.ReorderHS} {
			for _, mem := range microPoints(d) {
				b.Run(q.Name+"/"+op.String()+"/M"+mem.Label, func(b *testing.B) {
					runSingleOp(b, d, "web_sales", q.Spec, op, mem, core.Unordered(), nil)
				})
			}
		}
	}
}

// BenchmarkFig4 — Figure 4: SS vs FS and HS on the sorted/grouped variants.
func BenchmarkFig4(b *testing.B) {
	d := dataset(b)
	cases := []struct {
		q     paper.MicroQuery
		props core.Props
	}{
		{paper.MicroQueries()[3], core.TotallyOrdered(attrs.AscSeq(paper.Quantity))},
		{paper.MicroQueries()[4], core.Props{X: attrs.MakeSet(paper.Quantity), Grouped: true}},
	}
	mem := microPoints(d)[1]
	for _, c := range cases {
		for _, op := range []core.ReorderKind{core.ReorderFS, core.ReorderHS, core.ReorderSS} {
			b.Run(c.q.Name+"/"+op.String(), func(b *testing.B) {
				runSingleOp(b, d, c.q.Table, c.q.Spec, op, mem, c.props, nil)
			})
		}
	}
}

// benchSchemes runs one of Figures 5–8 as sub-benchmarks.
func benchSchemes(b *testing.B, query string, specs []window.Spec, extraVariants bool) {
	d := dataset(b)
	ws := paper.WFs(specs)
	mem := d.SchemeMemSweep()[0] // the "50MB" regime point
	cost := d.Entry.CostParams(mem.Bytes(d.Cfg.BlockSize), d.Cfg.BlockSize)
	type variant struct {
		name string
		plan func() (*core.Plan, error)
	}
	vars := []variant{
		{"BFO", func() (*core.Plan, error) { return core.BFO(ws, core.Unordered(), core.Options{Cost: cost}) }},
		{"CSO", func() (*core.Plan, error) { return core.CSO(ws, core.Unordered(), core.Options{Cost: cost}) }},
		{"ORCL", func() (*core.Plan, error) { return core.ORCL(ws, core.Unordered(), core.Options{Cost: cost}) }},
		{"PSQL", func() (*core.Plan, error) { return core.PSQL(ws, core.Unordered()) }},
	}
	if extraVariants {
		vars = append(vars,
			variant{"CSOv1", func() (*core.Plan, error) {
				return core.CSO(ws, core.Unordered(), core.Options{Cost: cost, DisableHS: true})
			}},
			variant{"CSOv2", func() (*core.Plan, error) {
				return core.CSO(ws, core.Unordered(), core.Options{Cost: cost, DisableSS: true})
			}},
		)
	}
	for _, v := range vars {
		b.Run(v.name, func(b *testing.B) {
			plan, err := v.plan()
			if err != nil {
				b.Fatal(err)
			}
			cfg := exec.Config{
				MemoryBytes: mem.Bytes(d.Cfg.BlockSize),
				BlockSize:   d.Cfg.BlockSize,
				Distinct:    d.Entry.Distinct,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				chain, _, err := exec.RunChain(context.Background(), d.WebSales, specs, plan, cfg)
				if err != nil {
					b.Fatal(err)
				}
				chain.Release()
			}
			b.SetBytes(d.Entry.ByteSize())
		})
	}
}

// BenchmarkFig5 — Figure 5 (Q6, including the CSO(v1)/CSO(v2) variants).
func BenchmarkFig5(b *testing.B) { benchSchemes(b, "Q6", paper.Q6(), true) }

// BenchmarkFig6 — Figure 6 (Q7).
func BenchmarkFig6(b *testing.B) { benchSchemes(b, "Q7", paper.Q7(), false) }

// BenchmarkFig7 — Figure 7 (Q8).
func BenchmarkFig7(b *testing.B) { benchSchemes(b, "Q8", paper.Q8(), false) }

// BenchmarkFig8 — Figure 8 (Q9).
func BenchmarkFig8(b *testing.B) { benchSchemes(b, "Q9", paper.Q9(), false) }

// BenchmarkTable11 — Table 11: optimization overhead per scheme and
// function count.
func BenchmarkTable11(b *testing.B) {
	cost := paper.PaperStats()
	for _, n := range []int{6, 8, 10} {
		ws := paper.WFs(paper.Q9())
		// Build an n-function input by cycling Q9's functions.
		in := make([]core.WF, n)
		for i := range in {
			in[i] = ws[i%len(ws)]
			in[i].ID = i
		}
		for _, scheme := range []string{"BFO", "CSO", "ORCL", "PSQL"} {
			b.Run(scheme+"/n"+strconv.Itoa(n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var err error
					switch scheme {
					case "BFO":
						_, err = core.BFO(in, core.Unordered(), core.Options{Cost: cost})
					case "CSO":
						_, err = core.CSO(in, core.Unordered(), core.Options{Cost: cost})
					case "ORCL":
						_, err = core.ORCL(in, core.Unordered(), core.Options{Cost: cost})
					case "PSQL":
						_, err = core.PSQL(in, core.Unordered())
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationBucketCount — HS bucket-count policy vs fixed counts.
func BenchmarkAblationBucketCount(b *testing.B) {
	d := dataset(b)
	q1 := paper.MicroQueries()[0].Spec
	mem := microPoints(d)[0]
	for _, buckets := range []int{0, 16, 256, 1024} {
		name := "policy"
		if buckets > 0 {
			name = strconv.Itoa(buckets)
		}
		b.Run(name, func(b *testing.B) {
			runSingleOp(b, d, "web_sales", q1, core.ReorderHS, mem, core.Unordered(), func(c *exec.Config) {
				c.HSBuckets = buckets
			})
		})
	}
}

// BenchmarkAblationMFV — the Section 3.2 most-frequent-value bypass on Q3's
// oversized partitions.
func BenchmarkAblationMFV(b *testing.B) {
	d := dataset(b)
	q3 := paper.MicroQueries()[2].Spec
	mem := microPoints(d)[2]
	for _, withMFV := range []bool{false, true} {
		name := "Off"
		if withMFV {
			name = "On"
		}
		b.Run(name, func(b *testing.B) {
			runSingleOp(b, d, "web_sales", q3, core.ReorderHS, mem, core.Unordered(), func(c *exec.Config) {
				if withMFV {
					memBytes := mem.Bytes(d.Cfg.BlockSize)
					c.MFV = func(key attrs.Set) map[string]bool { return d.Entry.MFVs(key, memBytes) }
				}
			})
		})
	}
}

// BenchmarkAblationCoverPartition — greedy max-cover vs DSATUR coloring.
func BenchmarkAblationCoverPartition(b *testing.B) {
	ws := paper.WFs(paper.Q9())
	b.Run("Greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.PartitionCoverSets(ws)
		}
	})
	b.Run("DSATUR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.PartitionCoverSetsDSATUR(ws)
		}
	})
}

// BenchmarkOperators — raw reorder throughput at a middle memory point.
func BenchmarkOperators(b *testing.B) {
	d := dataset(b)
	q1 := paper.MicroQueries()[0].Spec
	mem := microPoints(d)[1]
	b.Run("FullSort", func(b *testing.B) {
		runSingleOp(b, d, "web_sales", q1, core.ReorderFS, mem, core.Unordered(), nil)
	})
	b.Run("HashedSort", func(b *testing.B) {
		runSingleOp(b, d, "web_sales", q1, core.ReorderHS, mem, core.Unordered(), nil)
	})
	q4 := paper.MicroQueries()[3].Spec
	b.Run("SegmentedSort", func(b *testing.B) {
		runSingleOp(b, d, "web_sales_s", q4, core.ReorderSS, mem,
			core.TotallyOrdered(attrs.AscSeq(paper.Quantity)), nil)
	})
}

// BenchmarkWindowFunctions — per-function evaluation throughput over a
// pre-matched stream.
func BenchmarkWindowFunctions(b *testing.B) {
	d := dataset(b)
	kinds := []window.Kind{window.Rank, window.RowNumber, window.CumeDist, window.Sum, window.Min, window.Ntile}
	for _, kind := range kinds {
		spec := window.Spec{
			Name: "w", Kind: kind, Arg: -1, N: 4,
			PK: attrs.MakeSet(paper.Item),
			OK: attrs.AscSeq(paper.Time),
		}
		if kind == window.Sum || kind == window.Min {
			spec.Arg = paper.Quantity
		}
		sorted := d.WebSales.Clone()
		sorted.SortBy(attrs.AscSeq(paper.Item, paper.Time))
		b.Run(kind.String(), func(b *testing.B) {
			var ev window.Evaluator
			col := make([]storage.Value, sorted.Len())
			for i := 0; i < b.N; i++ {
				if err := ev.EvaluateSlice(sorted.Rows, spec, col); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(d.Entry.ByteSize())
		})
	}
}

// BenchmarkParallel — the partitioned chain (exec.Chain.Run at
// Config.Parallelism) on the Q6 chain at increasing degrees; degree 1 is
// the sequential baseline. cmd/windbench -exp parallel runs the full-scale sweep with a
// printed speedup table.
func BenchmarkParallel(b *testing.B) {
	d := dataset(b)
	specs := paper.Q6()
	mem := d.SchemeMemSweep()[0]
	plan, err := core.CSO(paper.WFs(specs), core.Unordered(),
		core.Options{Cost: d.Entry.CostParams(mem.Bytes(d.Cfg.BlockSize), d.Cfg.BlockSize)})
	if err != nil {
		b.Fatal(err)
	}
	cfg := exec.Config{
		MemoryBytes: mem.Bytes(d.Cfg.BlockSize),
		BlockSize:   d.Cfg.BlockSize,
		Distinct:    d.Entry.Distinct,
	}
	for _, degree := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("Q6/degree%d", degree), func(b *testing.B) {
			cfg.Parallelism = degree
			for i := 0; i < b.N; i++ {
				chain, _, err := exec.RunChain(context.Background(), d.WebSales, specs, plan, cfg)
				if err != nil {
					b.Fatal(err)
				}
				chain.Release()
			}
			b.SetBytes(d.Entry.ByteSize())
		})
	}
}
