// Package bench regenerates every table and figure of the paper's
// Section 6 evaluation on this repository's substrate: the FS/HS/SS
// micro-benchmarks (Figures 3–4), the multi-window scheme comparisons
// (Figures 5–8 with the plan Tables 4, 6, 8, 10), the optimizer overhead
// table (Table 11), the design-choice ablations called out in DESIGN.md (HS
// bucket count, SS's α choice), and the two Section 3.5 sweeps (parallel
// degrees, in-process shards).
//
// Every experiment reports in rows of one type, Row, from one runner
// (Dataset.Run; RunTable11 for the optimizer timings). The multi-window
// experiments run paper.Statements through windowdb.Engine — or, sharded,
// shard.Cluster — and read the plan and the counts off the cursor's
// QueryMetrics; only the rows that force an operator the planner would
// not choose (Figures 3–4 and the ablations) build a one-step plan, in
// forced. cmd/windbench prints the rows (Print); testdata/paper.golden
// pins every row's plan, cut, estimates and counts, so a change that moves
// a paper figure is a reviewed diff. Nothing here is a gate on elapsed
// time — load and performance claims belong to benchmark/ and
// BENCHMARK.json.
//
// Scaling. The paper ran a 14.3 GB, 72 M-row web_sales against unit reorder
// memories of 10 MB–1000 MB. This harness scales rows down (default 120 000)
// and maps the paper's memory points onto this table two ways:
//
//   - the micro-benchmarks use ratio-preserving mapping — the same B(R)/M
//     ratios as the paper — which preserves the deep-multi-pass regime at
//     the "10MB" point and the single-pass regime at "1000MB";
//   - the scheme comparisons use regime-preserving mapping: the paper's
//     50 MB/75 MB points sit below its substrate's single-merge-pass
//     threshold and 150 MB above it, so we place the scaled points relative
//     to this substrate's threshold M* = sqrt(B/2) (the external merge sort
//     needs a materialized pass exactly when B/2M > M−1). The threshold is
//     a square-root — not ratio — function of table size, so a pure ratio
//     mapping would silently change which regime "150MB" lands in.
//
// Absolute seconds are not comparable to the paper's (simulated block
// device, in-memory tables); shapes — who wins, by what factor, where the
// crossovers sit — are the reproduction target, and this package's tests
// assert them in blocks and comparisons.
package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/pagestore"
	"repro/internal/storage"
)

// Config parameterizes the harness.
type Config struct {
	// Rows sizes web_sales (default 120 000).
	Rows int
	// Seed drives deterministic data generation.
	Seed int64
	// BlockSize is the simulated page size (default 8 KiB).
	BlockSize int
}

func (c Config) withDefaults() Config {
	if c.Rows <= 0 {
		c.Rows = 120_000
	}
	if c.BlockSize <= 0 {
		c.BlockSize = pagestore.DefaultBlockSize
	}
	if c.Seed == 0 {
		c.Seed = 20120827 // VLDB 2012 opening day
	}
	return c
}

// Dataset bundles the generated tables, their statistics and the engines
// the experiments have run on. It is for one goroutine at a time.
type Dataset struct {
	Cfg Config

	WebSales  *storage.Table
	WebSalesS *storage.Table
	WebSalesG *storage.Table

	Entry  *catalog.Entry // web_sales statistics
	Blocks int64          // B(web_sales)

	engines map[windowdb.Config]*windowdb.Engine
}

// Build generates the dataset.
func Build(cfg Config) *Dataset {
	cfg = cfg.withDefaults()
	gen := datagen.WebSalesConfig{Rows: cfg.Rows, Seed: cfg.Seed}
	d := &Dataset{Cfg: cfg, engines: map[windowdb.Config]*windowdb.Engine{}}
	d.WebSales = datagen.WebSales(gen)
	d.WebSalesS = datagen.WebSalesSorted(gen)
	d.WebSalesG = datagen.WebSalesGrouped(gen)
	d.Entry = catalog.New().Register("web_sales", d.WebSales)
	d.Blocks = d.Entry.Blocks(cfg.BlockSize)
	return d
}

// MemPoint is one memory configuration of an experiment.
type MemPoint struct {
	Label  string // the paper's label, e.g. "50MB"
	Blocks int64  // scaled unit reorder memory in blocks
}

// Bytes converts the point to a byte budget.
func (m MemPoint) Bytes(blockSize int) int { return int(m.Blocks) * blockSize }

// MicroMemSweep maps the paper's Figure 3/4 memory labels onto this table
// with ratio-preserving scaling.
func (d *Dataset) MicroMemSweep() []MemPoint {
	// B(paper) = 14.3 GB; ratios B/M for the eight labels.
	ratios := []struct {
		label string
		ratio float64
	}{
		{"10MB", 1430}, {"25MB", 572}, {"50MB", 286}, {"75MB", 191},
		{"100MB", 143}, {"150MB", 95}, {"500MB", 29}, {"1000MB", 14},
	}
	out := make([]MemPoint, len(ratios))
	for i, r := range ratios {
		blocks := int64(float64(d.Blocks) / r.ratio)
		if blocks < 4 {
			blocks = 4
		}
		out[i] = MemPoint{Label: r.label, Blocks: blocks}
	}
	return out
}

// SchemeMemSweep maps the paper's 50/75/150 MB points onto this table with
// regime-preserving scaling around the single-merge-pass threshold
// M* = sqrt(B/2).
func (d *Dataset) SchemeMemSweep() []MemPoint {
	thr := math.Sqrt(float64(d.Blocks) / 2)
	pt := func(label string, factor float64, min int64) MemPoint {
		b := int64(thr * factor)
		if b < min {
			b = min
		}
		return MemPoint{Label: label, Blocks: b}
	}
	return []MemPoint{
		pt("50MB", 0.70, 6),
		pt("75MB", 0.85, 8),
		pt("150MB", 1.35, 10),
	}
}

// Row is one measurement of the evaluation, whatever the experiment: a
// chain run (for plans, only prepared) at one memory point, or one
// optimizer timing of Table 11.
type Row struct {
	Exp     string // the experiment, as windbench -exp names it
	Query   string // the statement; for an ablation the choice it ablates, for Table 11 the function count
	Variant string // the scheme, forced operator, ablation setting, parallel degree or shard count
	Mem     MemPoint

	Plan    string  // the chain in the paper's notation
	Cut     string  // exec.Segments' cut of the chain
	Cost    float64 // the cost model's price of the chain, in block I/Os
	EstCmps int64   // the cost model's comparisons, summed over the steps

	Blocks      int64 // spill blocks read and written
	Comparisons int64
	Detail      string // a one-step chain's operator statistics
	Elapsed     time.Duration
}

// Experiments are the names Run takes, in the order windbench prints them
// (Table 11, RunTable11, sits after fig8).
var Experiments = []string{"fig3", "fig4", "plans", "fig5", "fig6", "fig7", "fig8", "ablation", "parallel", "sharded"}

// Run measures one experiment.
func (d *Dataset) Run(exp string) ([]Row, error) {
	switch exp {
	case "fig3":
		return d.fig3()
	case "fig4":
		return d.fig4()
	case "plans":
		return d.plans()
	case "fig5", "fig6", "fig7", "fig8":
		return d.figure(exp)
	case "ablation":
		return d.ablations()
	case "parallel":
		return d.parallel()
	case "sharded":
		return d.sharded()
	}
	return nil, fmt.Errorf("bench: unknown experiment %q", exp)
}

// engine returns the engine of cfg at memory point mem over web_sales,
// built the first time it is asked for. A configuration that names no
// parallel degree runs sequentially, as the paper's chains do.
func (d *Dataset) engine(cfg windowdb.Config, mem MemPoint) *windowdb.Engine {
	cfg.SortMemBytes, cfg.BlockSize = mem.Bytes(d.Cfg.BlockSize), d.Cfg.BlockSize
	if cfg.Parallelism == 0 {
		cfg.Parallelism = 1
	}
	eng := d.engines[cfg]
	if eng == nil {
		eng = windowdb.New(cfg)
		eng.Register("web_sales", d.WebSales)
		d.engines[cfg] = eng
	}
	return eng
}

// describe fills r's plan columns from plan: the chain in the paper's
// notation, its cut, and the cost model's price of it over web_sales at
// r's memory point.
func (d *Dataset) describe(r *Row, plan *core.Plan) {
	if plan == nil {
		return
	}
	r.Plan = plan.PaperString()
	var cut []string
	for _, seg := range exec.Segments(plan) {
		var key []string
		for _, id := range seg.Key.IDs() {
			key = append(key, d.WebSales.Schema.Columns[id].Name)
		}
		cut = append(cut, fmt.Sprintf("%s[%d,%d){%s}", plan.Steps[seg.Lo].Reorder, seg.Lo, seg.Hi, strings.Join(key, ",")))
	}
	r.Cut = strings.Join(cut, " ")
	cost := d.Entry.CostParams(r.Mem.Bytes(d.Cfg.BlockSize), d.Cfg.BlockSize)
	r.Cost = cost.PlanCost(plan)
	for _, s := range plan.Steps {
		r.EstCmps += int64(cost.StepCmps(s))
	}
}
