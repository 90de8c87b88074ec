package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/attrs"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/paper"
	"repro/internal/storage"
	"repro/internal/window"
)

// smallWebSales builds a reduced web_sales with its catalog entry.
func smallWebSales(rows int) (*storage.Table, *catalog.Entry) {
	t := datagen.WebSales(datagen.WebSalesConfig{Rows: rows, Seed: 42, PadBytes: 24})
	cat := catalog.New()
	return t, cat.Register("web_sales", t)
}

// derived maps tag (ws_order_number) -> wf ID -> derived value for a chain
// execution result.
func derived(t *testing.T, result *storage.Table, plan *core.Plan, baseCols int) map[int64]map[int]storage.Value {
	t.Helper()
	out := make(map[int64]map[int]storage.Value, result.Len())
	for _, row := range result.Rows {
		tag := row[datagen.ColOrderNumber].Int64()
		m := make(map[int]storage.Value, len(plan.Steps))
		for i, step := range plan.Steps {
			m[step.WF.ID] = row[baseCols+i]
		}
		out[tag] = m
	}
	return out
}

// runTable runs plan over table through RunChain and returns its rows as
// whole tuples (Chain.Table).
func runTable(table *storage.Table, specs []window.Spec, plan *core.Plan, cfg Config) (*storage.Table, *Metrics, error) {
	chain, m, err := RunChain(context.Background(), table, specs, plan, cfg)
	if err != nil {
		return nil, nil, err
	}
	return chain.Table(), m, nil
}

// runScheme plans with the given scheme and executes at the given
// Parallelism.
func runScheme(t *testing.T, scheme string, table *storage.Table, entry *catalog.Entry, specs []window.Spec, memBytes, parallelism int) (map[int64]map[int]storage.Value, *Metrics, *core.Plan) {
	t.Helper()
	ws := paper.WFs(specs)
	opt := core.Options{Cost: entry.CostParams(memBytes, 4096)}
	var (
		plan *core.Plan
		err  error
	)
	switch scheme {
	case "CSO":
		plan, err = core.CSO(ws, core.Unordered(), opt)
	case "BFO":
		plan, err = core.BFO(ws, core.Unordered(), opt)
	case "ORCL":
		plan, err = core.ORCL(ws, core.Unordered(), opt)
	case "PSQL":
		plan, err = core.PSQL(ws, core.Unordered())
	default:
		t.Fatalf("unknown scheme %s", scheme)
	}
	if err != nil {
		t.Fatalf("%s: %v", scheme, err)
	}
	cfg := Config{
		MemoryBytes: memBytes,
		BlockSize:   4096,
		Distinct:    entry.Distinct,
		Parallelism: parallelism,
	}
	result, metrics, err := runTable(table, specs, plan, cfg)
	if err != nil {
		t.Fatalf("%s execute: %v", scheme, err)
	}
	if result.Len() != table.Len() {
		t.Fatalf("%s: result has %d rows, want %d", scheme, result.Len(), table.Len())
	}
	return derived(t, result, plan, table.Schema.Len()), metrics, plan
}

// TestSchemesAgreeOnPaperQueries — every optimization scheme computes
// identical window function values on Q6–Q9, and they agree with the O(n²)
// reference evaluator. This is the end-to-end correctness statement behind
// Figures 5–8: the schemes differ only in speed.
func TestSchemesAgreeOnPaperQueries(t *testing.T) {
	table, entry := smallWebSales(4000)
	queries := map[string][]window.Spec{
		"Q6": paper.Q6(),
		"Q7": paper.Q7(),
		"Q8": paper.Q8(),
		"Q9": paper.Q9(),
	}
	for name, specs := range queries {
		t.Run(name, func(t *testing.T) {
			// Reference values per wf.
			want := make([]map[int64]storage.Value, len(specs))
			for i, spec := range specs {
				vals, err := window.Reference(table.Rows, spec)
				if err != nil {
					t.Fatalf("reference wf%d: %v", i+1, err)
				}
				m := make(map[int64]storage.Value, len(vals))
				for r, v := range vals {
					m[table.Rows[r][datagen.ColOrderNumber].Int64()] = v
				}
				want[i] = m
			}
			for _, scheme := range []string{"CSO", "BFO", "ORCL", "PSQL"} {
				got, _, plan := runScheme(t, scheme, table, entry, specs, 64<<10, 1)
				if err := plan.Validate(paper.WFs(specs), core.Unordered()); err != nil {
					t.Fatalf("%s plan invalid: %v", scheme, err)
				}
				for tag, perWF := range got {
					for wfID, v := range perWF {
						if !storage.Equal(v, want[wfID][tag]) {
							t.Fatalf("%s %s: row %d wf%d = %s, reference %s (plan %s)",
								scheme, name, tag, wfID+1, v, want[wfID][tag], plan.PaperString())
						}
					}
				}
			}
		})
	}
}

// TestCSOBeatsPSQLOnIO — on Q9 the CSO chain must incur strictly less spill
// I/O than PSQL's 7 full sorts (the Figure 8 effect, in blocks).
func TestCSOBeatsPSQLOnIO(t *testing.T) {
	table, entry := smallWebSales(6000)
	specs := paper.Q9()
	mem := 24 << 10 // small enough that full sorts spill
	_, csoM, csoPlan := runScheme(t, "CSO", table, entry, specs, mem, 1)
	_, psqlM, _ := runScheme(t, "PSQL", table, entry, specs, mem, 1)
	if csoM.TotalBlocks() >= psqlM.TotalBlocks() {
		t.Errorf("CSO I/O %d ≥ PSQL I/O %d (CSO plan %s)",
			csoM.TotalBlocks(), psqlM.TotalBlocks(), csoPlan.PaperString())
	}
	_, orclM, _ := runScheme(t, "ORCL", table, entry, specs, mem, 1)
	if csoM.TotalBlocks() >= orclM.TotalBlocks() {
		t.Errorf("CSO I/O %d ≥ ORCL I/O %d", csoM.TotalBlocks(), orclM.TotalBlocks())
	}
}

// TestStepMetrics — per-step accounting matches totals.
func TestStepMetrics(t *testing.T) {
	table, entry := smallWebSales(3000)
	specs := paper.Q6()
	_, m, _ := runScheme(t, "CSO", table, entry, specs, 16<<10, 1)
	var r, w, c int64
	for _, s := range m.Steps {
		r += s.BlocksRead
		w += s.BlocksWritten
		c += s.Comparisons
	}
	if r != m.BlocksRead || w != m.BlocksWritten || c != m.Comparisons {
		t.Errorf("per-step sums (%d,%d,%d) != totals (%d,%d,%d)", r, w, c, m.BlocksRead, m.BlocksWritten, m.Comparisons)
	}
	if len(m.Steps) != len(specs) {
		t.Errorf("%d step metrics for %d functions", len(m.Steps), len(specs))
	}
	if m.Elapsed <= 0 {
		t.Errorf("elapsed not measured")
	}
}

// TestFileBackedExecution — the file-backed spill store produces identical
// results to the memory-backed one.
func TestFileBackedExecution(t *testing.T) {
	table, entry := smallWebSales(2000)
	specs := paper.Q6()
	ws := paper.WFs(specs)
	plan, err := core.CSO(ws, core.Unordered(), core.Options{Cost: entry.CostParams(8<<10, 4096)})
	if err != nil {
		t.Fatal(err)
	}
	memResult, _, err := runTable(table, specs, plan, Config{MemoryBytes: 8 << 10, BlockSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	fileResult, _, err := runTable(table, specs, plan, Config{MemoryBytes: 8 << 10, BlockSize: 4096, FileBacked: true, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	collect := func(tb *storage.Table) map[string]int {
		m := map[string]int{}
		for _, r := range tb.Rows {
			m[string(storage.AppendTuple(nil, r))]++
		}
		return m
	}
	a, b := collect(memResult), collect(fileResult)
	if len(a) != len(b) {
		t.Fatalf("row multiset size differs: %d vs %d", len(a), len(b))
	}
	for k, n := range a {
		if b[k] != n {
			t.Fatalf("file-backed results differ from memory-backed")
		}
	}
}

// TestRandomChainsAgainstReference — random multi-function chains through
// CSO and PSQL, each run at Parallelism 1, 2 and 3, agree with the
// reference evaluator (beyond the fixed paper queries).
func TestRandomChainsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	table, entry := smallWebSales(1500)
	attrsPool := []attrs.ID{paper.Date, paper.Time, paper.Item, paper.Bill, paper.Quantity}
	for trial := 0; trial < 8; trial++ {
		n := 1 + rng.Intn(4)
		specs := make([]window.Spec, n)
		for i := range specs {
			var pkIDs []attrs.ID
			for _, a := range attrsPool {
				if rng.Intn(3) == 0 {
					pkIDs = append(pkIDs, a)
				}
			}
			var ok attrs.Seq
			for _, a := range attrsPool {
				if attrs.MakeSet(pkIDs...).Contains(a) {
					continue
				}
				if rng.Intn(4) == 0 {
					ok = append(ok, attrs.Asc(a))
				}
			}
			specs[i] = window.Spec{
				Name: fmt.Sprintf("wf%d", i+1), Kind: window.Rank, Arg: -1,
				PK: attrs.MakeSet(pkIDs...), PKOrder: attrs.AscSeq(pkIDs...), OK: ok,
			}
		}
		want := make([]map[int64]storage.Value, n)
		for i, spec := range specs {
			vals, err := window.Reference(table.Rows, spec)
			if err != nil {
				t.Fatal(err)
			}
			m := map[int64]storage.Value{}
			for r, v := range vals {
				m[table.Rows[r][datagen.ColOrderNumber].Int64()] = v
			}
			want[i] = m
		}
		for _, scheme := range []string{"CSO", "PSQL"} {
			for _, parallelism := range []int{1, 2, 3} {
				got, _, plan := runScheme(t, scheme, table, entry, specs, 32<<10, parallelism)
				for tag, perWF := range got {
					for wfID, v := range perWF {
						if !storage.Equal(v, want[wfID][tag]) {
							t.Fatalf("trial %d %s at Parallelism %d: row %d wf%d = %s, want %s (plan %s, spec %+v)",
								trial, scheme, parallelism, tag, wfID+1, v, want[wfID][tag], plan, specs[wfID])
						}
					}
				}
			}
		}
	}
}

// TestTheorem4EvaluationOrder — if the input stream matches every function
// in W, any evaluation order computes the same (reference-correct) values
// with zero reorders (Theorem 4 / Corollary 1), end to end.
func TestTheorem4EvaluationOrder(t *testing.T) {
	table, _ := smallWebSales(1200)
	// Sort the table on (item, time, bill): it then matches both functions.
	sorted := table.Clone()
	sorted.SortBy(attrs.AscSeq(paper.Item, paper.Time, paper.Bill))
	specs := []window.Spec{
		{Name: "wf1", Kind: window.Rank, Arg: -1, PK: attrs.MakeSet(paper.Item), OK: attrs.AscSeq(paper.Time)},
		{Name: "wf2", Kind: window.Rank, Arg: -1, PK: attrs.MakeSet(paper.Item, paper.Time), OK: attrs.AscSeq(paper.Bill)},
	}
	ws := paper.WFs(specs)
	inProps := core.TotallyOrdered(attrs.AscSeq(paper.Item, paper.Time, paper.Bill))
	for _, wf := range ws {
		if !inProps.Matches(wf) {
			t.Fatalf("precondition: %s not matched by %s", wf, inProps)
		}
	}
	want := make([]map[int64]storage.Value, len(specs))
	for i, spec := range specs {
		vals, err := window.Reference(sorted.Rows, spec)
		if err != nil {
			t.Fatal(err)
		}
		m := map[int64]storage.Value{}
		for r, v := range vals {
			m[sorted.Rows[r][datagen.ColOrderNumber].Int64()] = v
		}
		want[i] = m
	}
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		plan := &core.Plan{Scheme: "manual"}
		for _, id := range order {
			plan.Steps = append(plan.Steps, core.Step{
				WF: ws[id], Reorder: core.ReorderNone, In: inProps, Out: inProps,
			})
		}
		if err := plan.Validate(ws, inProps); err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		result, metrics, err := runTable(sorted, specs, plan, Config{MemoryBytes: 1 << 20, BlockSize: 4096})
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		if metrics.TotalBlocks() != 0 {
			t.Errorf("order %v: matched chain spilled %d blocks", order, metrics.TotalBlocks())
		}
		for _, row := range result.Rows {
			tag := row[datagen.ColOrderNumber].Int64()
			for pos, id := range order {
				got := row[sorted.Schema.Len()+pos]
				if !storage.Equal(got, want[id][tag]) {
					t.Fatalf("order %v wf%d row %d: %s != %s", order, id+1, tag, got, want[id][tag])
				}
			}
		}
	}
}

// TestSpillingChainExtendsInPlace — a chain whose every step spills (FS to
// runs, SS to external units, HS to flushed buckets) keeps the executor's
// arena discipline across the spill files. Its last reorder is step 2, so
// the first two derived columns ride in the tuples: every row of the lean
// result ends with exactly the two slots the input arena gave it, which
// only holds if no Extend ever had to copy, and the third column is the
// tail vector; no row was written into by a neighbour (base columns equal
// the input); and checkChain holds the result to the reference.
func TestSpillingChainExtendsInPlace(t *testing.T) {
	table := datagen.WebSales(datagen.WebSalesConfig{Rows: 3000, Seed: 9, ItemDistinct: 4, WarehouseDistinct: 5, PadBytes: 24})
	rank := func(name string, pk attrs.ID, ok attrs.ID) window.Spec {
		return window.Spec{Name: name, Kind: window.Rank, Arg: -1, PK: attrs.MakeSet(pk), PKOrder: attrs.AscSeq(pk), OK: attrs.AscSeq(ok)}
	}
	specs := []window.Spec{
		rank("by_date", paper.Item, paper.Date),
		rank("by_bill", paper.Item, paper.Bill),
		rank("by_time", paper.Warehouse, paper.Time),
	}
	ws := paper.WFs(specs)
	plan := &core.Plan{Scheme: "test", Steps: []core.Step{
		{WF: ws[0], Reorder: core.ReorderFS, SortKey: attrs.AscSeq(paper.Item, paper.Date)},
		{WF: ws[1], Reorder: core.ReorderSS, Alpha: attrs.AscSeq(paper.Item), Beta: attrs.AscSeq(paper.Bill)},
		{WF: ws[2], Reorder: core.ReorderHS, HashKey: attrs.MakeSet(paper.Warehouse), SortKey: attrs.AscSeq(paper.Warehouse, paper.Time)},
	}}
	chain, m := checkChain(t, table, specs, plan, Config{MemoryBytes: 8 << 10, BlockSize: 1024, HSBuckets: 4})

	var runs, passes, units, external, buckets, spilled, resident, mfv int
	var inmem bool
	if _, err := fmt.Sscanf(m.Steps[0].Detail, "runs=%d passes=%d inmem=%t", &runs, &passes, &inmem); err != nil || inmem || runs < 2 {
		t.Fatalf("FS step did not spill: %q (%v)", m.Steps[0].Detail, err)
	}
	var segments int
	if _, err := fmt.Sscanf(m.Steps[1].Detail, "segments=%d units=%d external=%d", &segments, &units, &external); err != nil || external == 0 {
		t.Fatalf("SS step sorted no unit externally: %q (%v)", m.Steps[1].Detail, err)
	}
	if _, err := fmt.Sscanf(m.Steps[2].Detail, "buckets=%d spilled=%d resident=%d mfv=%d", &buckets, &spilled, &resident, &mfv); err != nil || spilled == 0 {
		t.Fatalf("HS step flushed no bucket: %q (%v)", m.Steps[2].Detail, err)
	}
	for i, s := range m.Steps {
		if s.BlocksWritten == 0 || s.BlocksRead == 0 {
			t.Fatalf("step %d moved no blocks", i)
		}
	}

	arity := table.Schema.Len()
	byTag := make(map[int64]storage.Tuple, table.Len())
	for _, row := range table.Rows {
		byTag[row[datagen.ColOrderNumber].Int64()] = row
	}
	for _, row := range chain.Rows {
		if len(row) != arity+2 || cap(row) != arity+2 {
			t.Fatalf("chain row len %d cap %d, want both %d: an Extend copied", len(row), cap(row), arity+2)
		}
		in := byTag[row[datagen.ColOrderNumber].Int64()]
		for c := range in {
			if !storage.Identical(row[c], in[c]) {
				t.Fatalf("order %s col %d = %q, input had %q", in[datagen.ColOrderNumber], c, row[c], in[c])
			}
		}
	}
}
