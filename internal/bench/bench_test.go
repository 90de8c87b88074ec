package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func smallDataset(t *testing.T) *Dataset {
	t.Helper()
	return Build(Config{Rows: 8000, Seed: 7, BlockSize: 4096})
}

// TestFig3Shape — the harness runs and the headline shape holds: HS beats
// FS at the smallest memory point (where FS needs multiple materialized
// merge passes) in spill I/O.
func TestFig3Shape(t *testing.T) {
	d := smallDataset(t)
	results, err := d.RunFig3(nil)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]MicroResult{}
	for _, r := range results {
		byKey[r.Query+"/"+r.Mem.Label+"/"+r.Op.String()] = r
	}
	// Q1 at the 10MB-equivalent: HS must beat FS on I/O.
	fs := byKey["Q1/10MB/FS"]
	hs := byKey["Q1/10MB/HS"]
	if fs.Blocks == 0 || hs.Blocks == 0 {
		t.Fatalf("missing measurements: %+v %+v", fs, hs)
	}
	if hs.Blocks >= fs.Blocks {
		t.Errorf("Q1@10MB: HS blocks %d ≥ FS blocks %d (expected HS win)", hs.Blocks, fs.Blocks)
	}
	// At the largest point FS should not lose on I/O.
	fsL := byKey["Q1/1000MB/FS"]
	hsL := byKey["Q1/1000MB/HS"]
	if fsL.Blocks > hsL.Blocks {
		t.Errorf("Q1@1000MB: FS blocks %d > HS blocks %d (expected FS ≤ HS)", fsL.Blocks, hsL.Blocks)
	}
	// HS is stable across memory: its I/O varies far less than FS's.
	fsSpread := float64(byKey["Q1/10MB/FS"].Blocks) / float64(maxI64(byKey["Q1/1000MB/FS"].Blocks, 1))
	hsSpread := float64(byKey["Q1/10MB/HS"].Blocks) / float64(maxI64(byKey["Q1/1000MB/HS"].Blocks, 1))
	if hsSpread > fsSpread {
		t.Errorf("HS spread %.2f > FS spread %.2f (expected HS flatter)", hsSpread, fsSpread)
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// TestFig4Shape — SS dominates FS and HS on both the sorted and grouped
// inputs at every memory point (Fig. 4's headline).
func TestFig4Shape(t *testing.T) {
	d := smallDataset(t)
	results, err := d.RunFig4(nil)
	if err != nil {
		t.Fatal(err)
	}
	perOp := map[string]MicroResult{}
	for _, r := range results {
		perOp[r.Query+"/"+r.Mem.Label+"/"+r.Op.String()] = r
	}
	for _, q := range []string{"Q4", "Q5"} {
		for _, mem := range d.MicroMemSweep() {
			ss := perOp[q+"/"+mem.Label+"/SS"]
			fs := perOp[q+"/"+mem.Label+"/FS"]
			hs := perOp[q+"/"+mem.Label+"/HS"]
			if ss.Blocks > fs.Blocks || ss.Blocks > hs.Blocks {
				t.Errorf("%s@%s: SS blocks %d exceed FS %d or HS %d",
					q, mem.Label, ss.Blocks, fs.Blocks, hs.Blocks)
			}
			if ss.Comparisons >= fs.Comparisons {
				t.Errorf("%s@%s: SS comparisons %d ≥ FS %d (expected n·log(n/k) win)",
					q, mem.Label, ss.Comparisons, fs.Comparisons)
			}
		}
	}
}

// TestSchemesShape — Figures 5–8: BFO/CSO never lose to ORCL, and ORCL
// never loses to PSQL, in spill I/O at the smallest memory point.
func TestSchemesShape(t *testing.T) {
	d := smallDataset(t)
	for _, q := range []string{"Q6", "Q7", "Q8", "Q9"} {
		results, err := d.RunSchemes(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		byScheme := map[string]SchemeResult{}
		for _, r := range results {
			if r.Mem.Label == "50MB" {
				byScheme[r.Scheme] = r
			}
		}
		cso, orcl, psql := byScheme["CSO"], byScheme["ORCL"], byScheme["PSQL"]
		if cso.Blocks > orcl.Blocks {
			t.Errorf("%s: CSO I/O %d > ORCL %d", q, cso.Blocks, orcl.Blocks)
		}
		if orcl.Blocks > psql.Blocks {
			t.Errorf("%s: ORCL I/O %d > PSQL %d", q, orcl.Blocks, psql.Blocks)
		}
		// BFO and CSO may pick different plans with identical model cost;
		// measured I/O then differs by key-width and bucket-layout noise.
		// They must stay within 15% — the Fig. 5–8 claim is BFO ≈ CSO.
		bfo := byScheme["BFO"]
		if float64(bfo.Blocks) > 1.15*float64(cso.Blocks) {
			t.Errorf("%s: BFO I/O %d ≫ CSO %d (plans %s vs %s)", q, bfo.Blocks, cso.Blocks, bfo.Plan, cso.Plan)
		}
	}
}

// TestPlansPrint — the plan tables render and contain the Q8 CSO golden
// chain at the small memory point.
func TestPlansPrint(t *testing.T) {
	d := smallDataset(t)
	var sb strings.Builder
	if err := d.PrintPlans(&sb); err != nil {
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
// grows with the function count.
func TestTable11Shape(t *testing.T) {
	results, err := RunTable11(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("rows = %d", len(results))
	}
	last := results[len(results)-1]
	if last.Millis["CSO"] > last.Millis["BFO"] {
		t.Errorf("CSO overhead %.3fms > BFO %.3fms at 10 wfs", last.Millis["CSO"], last.Millis["BFO"])
	}
	if last.Millis["PSQL"] > last.Millis["CSO"] {
		t.Errorf("PSQL overhead should be smallest")
	}
}

// TestAblations — all ablations run; spot-check the headline effects.
func TestAblations(t *testing.T) {
	d := smallDataset(t)
	results, err := d.RunAblations(nil)
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]AblationResult{}
	for _, r := range results {
		by[r.Experiment+"/"+r.Variant] = r
	}
	// MFV bypass saves partition I/O on Q3.
	if by["mfv-bypass/mfv-bypass"].Blocks >= by["mfv-bypass/no-bypass (paper prototype)"].Blocks {
		t.Errorf("MFV bypass saved no I/O")
	}
	// α-max does fewer comparisons than the short α.
	if by["ss-alpha/alpha-max (quantity,item)"].Comparisons >= by["ss-alpha/alpha-short (quantity)"].Comparisons {
		t.Errorf("α-max should minimize comparisons (footnote 2)")
	}
	_ = core.ReorderSS
}

// TestParallelScenario — the parallel-speedup scenario runs at CI scale,
// produces one result per degree, and exhibits the structural effect: spill
// I/O shrinks monotonically with the degree (wall-clock speedups are host-
// dependent and not asserted).
func TestParallelScenario(t *testing.T) {
	d := smallDataset(t)
	results, err := d.RunParallel(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(parallelDegrees) {
		t.Fatalf("%d results for %d degrees", len(results), len(parallelDegrees))
	}
	for i, res := range results {
		if res.Degree != parallelDegrees[i] {
			t.Errorf("result %d: degree %d, want %d", i, res.Degree, parallelDegrees[i])
		}
		if res.Elapsed <= 0 || res.Speedup <= 0 {
			t.Errorf("degree %d: unmeasured run (%v, %.2fx)", res.Degree, res.Elapsed, res.Speedup)
		}
	}
	// The structural effect: the highest degree spills strictly less than
	// the sequential baseline. (Adjacent degrees may tie or wobble by a few
	// partial runs; the endpoints may not.)
	first, last := results[0], results[len(results)-1]
	if last.Blocks >= first.Blocks {
		t.Errorf("degree %d spills %d blocks, not less than degree %d's %d",
			last.Degree, last.Blocks, first.Degree, first.Blocks)
	}
}

// TestShardedScenario — the sharded-cluster scenario runs at CI scale:
// one result per shard count plus the HTTP round trip, every
// configuration value-identical (asserted inside RunSharded). Shard-side
// spill I/O must track the in-process partitioned chain's — scatter IS
// Chain.Run's partitioned path lifted across nodes — so 4 shards may not
// spill more than 1 shard beyond partial-run noise; the merge-pass drop
// itself needs the full-scale table (windbench -exp sharded), as in
// TestParallelScenario's degree-8 point. Wall-clock scaleout is
// host-dependent and reported, not asserted.
func TestShardedScenario(t *testing.T) {
	d := smallDataset(t)
	results, err := d.RunSharded(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(shardCounts)+1 {
		t.Fatalf("%d results for %d shard counts + http", len(results), len(shardCounts))
	}
	for i, res := range results[:len(shardCounts)] {
		if res.Shards != shardCounts[i] || res.HTTP {
			t.Errorf("result %d: shards %d http %v", i, res.Shards, res.HTTP)
		}
		if res.Elapsed <= 0 || res.Scaleout <= 0 {
			t.Errorf("shards %d: unmeasured run (%v, %.2fx)", res.Shards, res.Elapsed, res.Scaleout)
		}
	}
	first, last := results[0], results[len(shardCounts)-1]
	if last.Blocks > first.Blocks+first.Blocks/20 {
		t.Errorf("4 shards spill %d blocks, more than 1 shard's %d beyond noise", last.Blocks, first.Blocks)
	}
	httpRes := results[len(results)-1]
	if !httpRes.HTTP || httpRes.Shards != 2 || httpRes.Elapsed <= 0 {
		t.Errorf("http round trip: %+v", httpRes)
	}
}
