// Package bench regenerates every table and figure of the paper's
// Section 6 evaluation on this repository's substrate: the FS/HS/SS
// micro-benchmarks (Figures 3–4), the multi-window scheme comparisons
// (Figures 5–8 with the plan Tables 4, 6, 8, 10), the optimizer overhead
// table (Table 11), the design-choice ablations called out in DESIGN.md (HS
// bucket count, the MFV bypass, SS's α choice), and the two Section 3.5
// sweeps (parallel degrees, in-process shards). cmd/windbench prints them;
// nothing here is a gate on elapsed time — load and performance claims
// belong to benchmark/ and BENCHMARK.json.
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
	"io"
	"math"

	"repro/internal/attrs"
	"repro/internal/catalog"
	"repro/internal/datagen"
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

// Dataset bundles the generated tables and their statistics.
type Dataset struct {
	Cfg Config

	WebSales  *storage.Table
	WebSalesS *storage.Table
	WebSalesG *storage.Table

	Catalog *catalog.Catalog
	Entry   *catalog.Entry // web_sales statistics
	Blocks  int64          // B(web_sales)
}

// Build generates the dataset.
func Build(cfg Config) *Dataset {
	cfg = cfg.withDefaults()
	gen := datagen.WebSalesConfig{Rows: cfg.Rows, Seed: cfg.Seed}
	d := &Dataset{Cfg: cfg}
	d.WebSales = datagen.WebSales(gen)
	d.WebSalesS = datagen.WebSalesSorted(gen)
	d.WebSalesG = datagen.WebSalesGrouped(gen)
	d.Catalog = catalog.New()
	d.Entry = d.Catalog.Register("web_sales", d.WebSales)
	d.Catalog.Register("web_sales_s", d.WebSalesS)
	d.Catalog.Register("web_sales_g", d.WebSalesG)
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

// MicroSpec names the rank() template of the micro-benchmark (Table 1).
type MicroSpec struct {
	Query string
	Table string
	PK    attrs.Set
	OK    attrs.Seq
}

func fprintf(w io.Writer, format string, args ...interface{}) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
