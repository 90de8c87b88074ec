package exec

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"repro/internal/attrs"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/paper"
	"repro/internal/storage"
	"repro/internal/window"
)

// csoPlan plans specs with CSO over the entry's statistics.
func csoPlan(t *testing.T, entry *catalog.Entry, specs []window.Spec, memBytes int) *core.Plan {
	t.Helper()
	plan, err := core.CSO(paper.WFs(specs), core.Unordered(), core.Options{Cost: entry.CostParams(memBytes, 4096)})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// canonical returns the result rows encoded and sorted, a row-multiset
// fingerprint independent of output order.
func canonical(t *storage.Table) []string {
	out := make([]string, t.Len())
	for i, r := range t.Rows {
		out[i] = string(storage.AppendTuple(nil, r))
	}
	sort.Strings(out)
	return out
}

// TestParallelRunMatchesSequential — on the paper's multi-window queries
// Chain.Run computes, at every Parallelism, exactly the sequential
// pipeline's rows (tuple for tuple under canonical order: same derived
// values, same multiset), runs some steps partitioned, and the merged
// metrics keep one entry per step.
func TestParallelRunMatchesSequential(t *testing.T) {
	table, entry := smallWebSales(3000)
	cfg := Config{MemoryBytes: 32 << 10, BlockSize: 4096, Distinct: entry.Distinct}
	for name, specs := range map[string][]window.Spec{
		"Q6": paper.Q6(), "Q7": paper.Q7(), "Q8": paper.Q8(), "Q9": paper.Q9(),
	} {
		t.Run(name, func(t *testing.T) {
			plan := csoPlan(t, entry, specs, cfg.MemoryBytes)
			seq, seqM, err := runTable(table, specs, plan, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := canonical(seq)
			for _, degree := range []int{2, 3, 4, 8} {
				pcfg := cfg
				pcfg.Parallelism = degree
				par, parM, err := runTable(table, specs, plan, pcfg)
				if err != nil {
					t.Fatalf("degree %d: %v", degree, err)
				}
				if pn, sn := fmt.Sprint(par.Schema.Names()), fmt.Sprint(seq.Schema.Names()); pn != sn {
					t.Fatalf("degree %d: schema %s != sequential %s", degree, pn, sn)
				}
				got := canonical(par)
				if len(got) != len(want) {
					t.Fatalf("degree %d: %d rows, want %d", degree, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("degree %d: row %d differs from sequential", degree, i)
					}
				}
				if len(parM.Steps) != len(seqM.Steps) {
					t.Fatalf("degree %d: %d step metrics, want %d", degree, len(parM.Steps), len(seqM.Steps))
				}
				if seqM.Concatenated || seqM.PartitionedSteps != 0 {
					t.Fatalf("sequential metrics report a partitioned run")
				}
				if parM.PartitionedSteps == 0 {
					t.Fatalf("degree %d: no step ran partitioned", degree)
				}
				for i := range parM.Steps {
					if parM.Steps[i].WFID != seqM.Steps[i].WFID {
						t.Fatalf("degree %d: step %d evaluates wf%d, sequential wf%d",
							degree, i, parM.Steps[i].WFID, seqM.Steps[i].WFID)
					}
				}
			}
		})
	}
}

// TestParallelEvaluate — Section 3.5's single-function form is a one-step
// chain: partitioned on its PARTITION BY at every degree past 1; with an
// empty PARTITION BY there is no key to partition on, and it runs
// sequentially. (Its values are TestRandomChainsAgainstReference's.)
func TestParallelEvaluate(t *testing.T) {
	table, entry := smallWebSales(3000)
	check := func(spec window.Spec, degrees []int, partitioned bool) {
		t.Helper()
		specs := []window.Spec{spec}
		plan := csoPlan(t, entry, specs, 1<<20)
		for _, degree := range degrees {
			out, m, err := runTable(table, specs, plan, Config{MemoryBytes: 1 << 20, BlockSize: 4096, Parallelism: degree})
			if err != nil {
				t.Fatalf("degree %d: %v", degree, err)
			}
			if out.Len() != table.Len() {
				t.Fatalf("degree %d: %d rows", degree, out.Len())
			}
			if got := m.PartitionedSteps > 0; got != (partitioned && degree > 1) {
				t.Fatalf("degree %d: %d steps partitioned", degree, m.PartitionedSteps)
			}
		}
	}
	check(paper.MicroQueries()[0].Spec, []int{1, 2, 4, 7}, true) // rank() over (partition by item order by time)
	check(window.Spec{Kind: window.Rank, Arg: -1, OK: attrs.AscSeq(paper.Time, datagen.ColOrderNumber)}, []int{2}, false)
}

// TestParallelRunDeterministic — repeated runs at the same degree produce
// identical output, including row order (partition-index concatenation).
func TestParallelRunDeterministic(t *testing.T) {
	table, entry := smallWebSales(2000)
	specs := paper.Q9()
	cfg := Config{MemoryBytes: 16 << 10, BlockSize: 4096, Distinct: entry.Distinct, Parallelism: 4}
	plan := csoPlan(t, entry, specs, cfg.MemoryBytes)
	first, _, err := runTable(table, specs, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		again, _, err := runTable(table, specs, plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if again.Len() != first.Len() {
			t.Fatalf("trial %d: %d rows, want %d", trial, again.Len(), first.Len())
		}
		for i := range first.Rows {
			if string(storage.AppendTuple(nil, again.Rows[i])) != string(storage.AppendTuple(nil, first.Rows[i])) {
				t.Fatalf("trial %d: row %d differs between runs of the same degree", trial, i)
			}
		}
	}
}

// TestParallelRunEmptyTable — an empty input yields an empty output with the
// fully extended schema at any degree.
func TestParallelRunEmptyTable(t *testing.T) {
	full, entry := smallWebSales(200)
	specs := paper.Q6()
	plan := csoPlan(t, entry, specs, 16<<10)
	empty := storage.NewTable(full.Schema)
	for _, degree := range []int{1, 4} {
		out, m, err := runTable(empty, specs, plan, Config{MemoryBytes: 16 << 10, BlockSize: 4096, Parallelism: degree})
		if err != nil {
			t.Fatalf("degree %d: %v", degree, err)
		}
		if out.Len() != 0 {
			t.Fatalf("degree %d: %d rows from empty input", degree, out.Len())
		}
		if out.Schema.Len() != full.Schema.Len()+len(specs) {
			t.Fatalf("degree %d: schema has %d columns, want %d", degree, out.Schema.Len(), full.Schema.Len()+len(specs))
		}
		if m == nil || len(m.Steps) != len(specs) {
			t.Fatalf("degree %d: missing per-step metrics", degree)
		}
	}
	// Sequential compatibility extends to errors: an invalid plan must be
	// rejected even when every partition would be empty.
	bad := &core.Plan{Scheme: "manual", Steps: []core.Step{{WF: core.WF{ID: 99}, Reorder: core.ReorderFS, SortKey: attrs.AscSeq(0)}}}
	if _, _, err := runTable(empty, specs, bad, Config{MemoryBytes: 16 << 10, BlockSize: 4096, Parallelism: 4}); err == nil {
		t.Errorf("invalid plan over empty table accepted at Parallelism 4")
	}
}

// TestParallelRunDegreeExceedsKeys — more partitions than distinct partition
// key values leaves some workers idle but changes nothing.
func TestParallelRunDegreeExceedsKeys(t *testing.T) {
	table, entry := smallWebSales(1500)
	// Warehouse has 16 distinct values; degree 64 > 16.
	spec := window.Spec{
		Name: "r", Kind: window.Rank, Arg: -1,
		PK: attrs.MakeSet(paper.Warehouse), OK: attrs.AscSeq(paper.Time),
	}
	specs := []window.Spec{spec}
	cfg := Config{MemoryBytes: 32 << 10, BlockSize: 4096, Distinct: entry.Distinct}
	plan := csoPlan(t, entry, specs, cfg.MemoryBytes)
	seq, _, err := runTable(table, specs, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 64
	par, _, err := runTable(table, specs, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, got := canonical(seq), canonical(par)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d differs with degree > distinct keys", i)
		}
	}
}

// TestParallelRunDegreeClamping — Degree resolves 0 to GOMAXPROCS and
// negatives to 1; Chain.Run itself partitions only at Parallelism > 1, so 0
// and negatives run the sequential pipeline.
func TestParallelRunDegreeClamping(t *testing.T) {
	if d := (Config{Parallelism: 5}).Degree(); d != 5 {
		t.Errorf("Degree() with Parallelism 5 = %d", d)
	}
	if d := (Config{Parallelism: -3}).Degree(); d != 1 {
		t.Errorf("Degree() with negative Parallelism = %d, want 1", d)
	}
	if d := (Config{}).Degree(); d != runtime.GOMAXPROCS(0) {
		t.Errorf("Degree() zero default = %d, want GOMAXPROCS %d", d, runtime.GOMAXPROCS(0))
	}
	table, entry := smallWebSales(800)
	specs := paper.Q6()
	cfg := Config{MemoryBytes: 32 << 10, BlockSize: 4096, Distinct: entry.Distinct}
	plan := csoPlan(t, entry, specs, cfg.MemoryBytes)
	seq, _, err := runTable(table, specs, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := canonical(seq)
	for _, degree := range []int{0, -7} {
		cfg.Parallelism = degree
		out, m, err := runTable(table, specs, plan, cfg)
		if err != nil {
			t.Fatalf("degree %d: %v", degree, err)
		}
		if m.PartitionedSteps != 0 {
			t.Fatalf("degree %d: %d steps ran partitioned", degree, m.PartitionedSteps)
		}
		got := canonical(out)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("degree %d: row %d differs from sequential", degree, i)
			}
		}
	}
}

// TestParallelRunMergedMetrics — per-step counter sums equal the merged
// totals, exactly as for the sequential pipeline.
func TestParallelRunMergedMetrics(t *testing.T) {
	table, entry := smallWebSales(2000)
	specs := paper.Q8()
	cfg := Config{MemoryBytes: 16 << 10, BlockSize: 4096, Distinct: entry.Distinct, Parallelism: 4}
	plan := csoPlan(t, entry, specs, cfg.MemoryBytes)
	_, m, err := runTable(table, specs, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var r, w, c int64
	for _, s := range m.Steps {
		r += s.BlocksRead
		w += s.BlocksWritten
		c += s.Comparisons
	}
	if r != m.BlocksRead || w != m.BlocksWritten || c != m.Comparisons {
		t.Errorf("per-step sums (%d,%d,%d) != totals (%d,%d,%d)", r, w, c, m.BlocksRead, m.BlocksWritten, m.Comparisons)
	}
	if c == 0 {
		t.Errorf("parallel chain recorded no comparisons")
	}
}

// TestPlanSegments — Segments' invariants on the paper's chains: segments
// tile the plan, every parallel segment's key sits inside each member's WPK,
// and every segment after the first begins with an order-rebuilding reorder.
func TestPlanSegments(t *testing.T) {
	_, entry := smallWebSales(2000)
	for name, specs := range map[string][]window.Spec{
		"Q6": paper.Q6(), "Q7": paper.Q7(), "Q8": paper.Q8(), "Q9": paper.Q9(),
	} {
		plan := csoPlan(t, entry, specs, 32<<10)
		segs := Segments(plan)
		pos := 0
		sawParallel := false
		for i, seg := range segs {
			if seg.Lo != pos || seg.Hi <= seg.Lo {
				t.Fatalf("%s: segment %d spans [%d,%d) after position %d", name, i, seg.Lo, seg.Hi, pos)
			}
			pos = seg.Hi
			if i > 0 && !rebuildsOrder(plan.Steps[seg.Lo].Reorder) {
				t.Errorf("%s: segment %d starts with %s after a concatenation barrier",
					name, i, plan.Steps[seg.Lo].Reorder)
			}
			if seg.Key.Empty() {
				continue
			}
			sawParallel = true
			for _, s := range plan.Steps[seg.Lo:seg.Hi] {
				if !seg.Key.SubsetOf(s.WF.PK) {
					t.Errorf("%s: segment key %s ⊄ WPK %s of wf%d", name, seg.Key, s.WF.PK, s.WF.ID)
				}
			}
		}
		if pos != len(plan.Steps) {
			t.Fatalf("%s: segments cover %d of %d steps", name, pos, len(plan.Steps))
		}
		if name == "Q6" && (len(segs) != 1 || segs[0].Key.Empty()) {
			t.Errorf("Q6 shares WPK {item}: want one parallel segment, got %+v", segs)
		}
		if !sawParallel {
			t.Errorf("%s: no parallel segment found", name)
		}
	}
}
