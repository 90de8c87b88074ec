package bench

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata/paper.golden and testdata/chains.golden from this tree")

// goldenPath is the committed table TestPaperGolden holds every row to.
const goldenPath = "testdata/paper.golden"

// dataset is the shape tests' dataset: 8 000 rows, seed 7, 4 KiB blocks.
var dataset = sync.OnceValue(func() *Dataset { return Build(Config{Rows: 8000, Seed: 7, BlockSize: 4096}) })

// paperRows measures every experiment once on dataset and shares the rows
// between the tests.
var paperRows = sync.OnceValues(func() (map[string][]Row, error) {
	rows := map[string][]Row{}
	for _, exp := range Experiments {
		r, err := dataset().Run(exp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", exp, err)
		}
		rows[exp] = r
	}
	return rows, nil
})

func experiment(t *testing.T, exp string) []Row {
	t.Helper()
	rows, err := paperRows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows[exp]) == 0 {
		t.Fatalf("%s: no rows", exp)
	}
	return rows[exp]
}

// golden renders the rows the way testdata/paper.golden holds them: every
// column but the time, one row a line.
func golden(rows map[string][]Row) string {
	var b strings.Builder
	b.WriteString("# The paper's evaluation on 8 000 rows of web_sales (seed 7, 4 KiB blocks), one\n")
	b.WriteString("# row per line: the chain each row ran, its exec.Segments cut, the cost model's\n")
	b.WriteString("# comparisons and price, and the blocks and comparisons it made. Regenerate\n")
	b.WriteString("# with `make golden` and review the diff.\n")
	b.WriteString("# exp\tquery\tvariant\tM\tplan\tcut\test_cmps\tcost\tblocks\tcmps\tdetail\n")
	for _, exp := range Experiments {
		for _, r := range rows[exp] {
			fmt.Fprintf(&b, "%s\t%s\t%s\t%s=%d\t%s\t%s\t%d\t%.1f\t%d\t%d\t%s\n", r.Exp, r.Query, r.Variant, r.Mem.Label, r.Mem.Blocks,
				r.Plan, r.Cut, r.EstCmps, r.Cost, r.Blocks, r.Comparisons, r.Detail)
		}
	}
	return b.String()
}

// TestPaperGolden — every experiment's plans, cuts, estimates and counts
// are the committed table's, line for line: a change that moves a paper
// figure moves this file, and `make golden` (go test -update) rewrites it
// for review.
func TestPaperGolden(t *testing.T) {
	rows, err := paperRows()
	if err != nil {
		t.Fatal(err)
	}
	got := golden(rows)
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s:%d\n got: %s\nwant: %s", goldenPath, i+1, g, w)
		}
	}
}

// byKey indexes rows by query, memory label and variant.
func byKey(rows []Row) map[string]Row {
	out := map[string]Row{}
	for _, r := range rows {
		out[r.Query+"/"+r.Mem.Label+"/"+r.Variant] = r
	}
	return out
}

// TestFig3Shape — HS beats FS at the smallest memory point (where FS
// needs multiple materialized merge passes) in spill I/O, FS does not lose
// at the largest, and HS's I/O varies far less across memory than FS's.
func TestFig3Shape(t *testing.T) {
	by := byKey(experiment(t, "fig3"))
	fs, hs := by["Q1/10MB/FS"], by["Q1/10MB/HS"]
	if fs.Blocks == 0 || hs.Blocks == 0 {
		t.Fatalf("missing measurements: %+v %+v", fs, hs)
	}
	if hs.Blocks >= fs.Blocks {
		t.Errorf("Q1@10MB: HS blocks %d ≥ FS blocks %d (expected HS win)", hs.Blocks, fs.Blocks)
	}
	fsL, hsL := by["Q1/1000MB/FS"], by["Q1/1000MB/HS"]
	if fsL.Blocks > hsL.Blocks {
		t.Errorf("Q1@1000MB: FS blocks %d > HS blocks %d (expected FS ≤ HS)", fsL.Blocks, hsL.Blocks)
	}
	fsSpread := float64(fs.Blocks) / float64(max(fsL.Blocks, 1))
	hsSpread := float64(hs.Blocks) / float64(max(hsL.Blocks, 1))
	if hsSpread > fsSpread {
		t.Errorf("HS spread %.2f > FS spread %.2f (expected HS flatter)", hsSpread, fsSpread)
	}
}

// TestFig4Shape — SS dominates FS and HS on both the sorted and grouped
// inputs at every memory point (Fig. 4's headline).
func TestFig4Shape(t *testing.T) {
	by := byKey(experiment(t, "fig4"))
	for _, q := range []string{"Q4", "Q5"} {
		for _, mem := range dataset().MicroMemSweep() {
			k := q + "/" + mem.Label + "/"
			ss, fs, hs := by[k+"SS"], by[k+"FS"], by[k+"HS"]
			if ss.Blocks > fs.Blocks || ss.Blocks > hs.Blocks {
				t.Errorf("%s@%s: SS blocks %d exceed FS %d or HS %d", q, mem.Label, ss.Blocks, fs.Blocks, hs.Blocks)
			}
			if ss.Comparisons >= fs.Comparisons {
				t.Errorf("%s@%s: SS comparisons %d ≥ FS %d (expected n·log(n/k) win)", q, mem.Label, ss.Comparisons, fs.Comparisons)
			}
		}
	}
}

// TestSchemesShape — Figures 5–8: BFO/CSO never lose to ORCL, and ORCL
// never loses to PSQL, in spill I/O at the smallest memory point.
func TestSchemesShape(t *testing.T) {
	for _, fig := range []string{"fig5", "fig6", "fig7", "fig8"} {
		by := byKey(experiment(t, fig))
		q := figures[fig] + "/50MB/"
		cso, orcl, psql := by[q+"CSO"], by[q+"ORCL"], by[q+"PSQL"]
		if cso.Blocks > orcl.Blocks {
			t.Errorf("%s: CSO I/O %d > ORCL %d", fig, cso.Blocks, orcl.Blocks)
		}
		if orcl.Blocks > psql.Blocks {
			t.Errorf("%s: ORCL I/O %d > PSQL %d", fig, orcl.Blocks, psql.Blocks)
		}
		// BFO and CSO may pick different plans with identical model cost;
		// measured I/O then differs by key-width and bucket-layout noise.
		// They must stay within 15% — the Fig. 5–8 claim is BFO ≈ CSO.
		if bfo := by[q+"BFO"]; float64(bfo.Blocks) > 1.15*float64(cso.Blocks) {
			t.Errorf("%s: BFO I/O %d ≫ CSO %d (plans %s vs %s)", fig, bfo.Blocks, cso.Blocks, bfo.Plan, cso.Plan)
		}
	}
}

// TestPlansPrint — the plan tables render and contain the Q8 CSO golden
// chain at the small memory point.
func TestPlansPrint(t *testing.T) {
	var sb strings.Builder
	if err := Print(&sb, dataset(), "plans", experiment(t, "plans")); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "ws --HS--> wf5 --SS--> wf1 -> wf2 --HS--> wf4 -> wf3") {
		t.Errorf("Q8 CSO plan missing from:\n%s", out)
	}
	if !strings.Contains(out, "Table 10") {
		t.Errorf("Table 10 section missing")
	}
}

// TestTable11Shape — CSO's optimization overhead stays far below BFO's and
// PSQL's is the smallest, at 10 functions.
func TestTable11Shape(t *testing.T) {
	rows, err := RunTable11(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5*2*len(core.Generators) {
		t.Fatalf("rows = %d", len(rows))
	}
	total := map[string]float64{}
	for _, r := range rows {
		if r.Query == "10" {
			total[r.Variant] += float64(r.Elapsed)
		}
	}
	if total["CSO"] > total["BFO"] {
		t.Errorf("CSO overhead %.0fns > BFO %.0fns at 10 wfs", total["CSO"], total["BFO"])
	}
	if total["PSQL"] > total["CSO"] {
		t.Errorf("PSQL overhead should be smallest")
	}
}

// TestAblations — the maximal α makes fewer comparisons than the short
// one.
func TestAblations(t *testing.T) {
	by := map[string]Row{}
	for _, r := range experiment(t, "ablation") {
		by[r.Query+"/"+r.Variant] = r
	}
	if by["ss-alpha/alpha-max (quantity,item)"].Comparisons >= by["ss-alpha/alpha-short (quantity)"].Comparisons {
		t.Errorf("α-max should minimize comparisons (footnote 2)")
	}
}

// TestParallelScenario — one row per degree, each measured, and the
// structural effect: the highest degree spills strictly less than the
// sequential baseline. (Adjacent degrees may tie or wobble by a few partial
// runs; the endpoints may not. Wall-clock speedups are host-dependent and
// not asserted.)
func TestParallelScenario(t *testing.T) {
	rows := experiment(t, "parallel")
	if len(rows) != len(parallelDegrees) {
		t.Fatalf("%d rows for %d degrees", len(rows), len(parallelDegrees))
	}
	for i, r := range rows {
		if r.Variant != fmt.Sprint(parallelDegrees[i]) || r.Elapsed <= 0 {
			t.Errorf("row %d: degree %s, %v; want degree %d, measured", i, r.Variant, r.Elapsed, parallelDegrees[i])
		}
	}
	if first, last := rows[0], rows[len(rows)-1]; last.Blocks >= first.Blocks {
		t.Errorf("degree %s spills %d blocks, not less than degree %s's %d", last.Variant, last.Blocks, first.Variant, first.Blocks)
	}
}

// TestShardedScenario — one row per shard count plus the HTTP cluster,
// every one scattered and value-identical (both checked inside sharded).
// Shard-side spill I/O must track the in-process partitioned chain's —
// scatter IS Chain.Run's partitioned path lifted across nodes — so 4 shards
// may not spill more than 1 shard beyond partial-run noise; the merge-pass
// drop itself needs the full-scale table (windbench -exp sharded), as in
// TestParallelScenario's degree-8 point. Wall-clock scaleout is
// host-dependent and reported, not asserted.
func TestShardedScenario(t *testing.T) {
	rows := experiment(t, "sharded")
	if len(rows) != len(shardCounts)+1 || rows[len(rows)-1].Variant != "2/http" {
		t.Fatalf("rows %+v, want one per shard count and 2/http", rows)
	}
	for i, r := range rows {
		if r.Elapsed <= 0 || (i < len(shardCounts) && r.Variant != fmt.Sprint(shardCounts[i])) {
			t.Errorf("row %d: %s shards, %v", i, r.Variant, r.Elapsed)
		}
	}
	first, last := rows[0], rows[len(shardCounts)-1]
	if last.Blocks > first.Blocks+first.Blocks/20 {
		t.Errorf("4 shards spill %d blocks, more than 1 shard's %d beyond noise", last.Blocks, first.Blocks)
	}
}
