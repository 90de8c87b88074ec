package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/attrs"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/gen"
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

// chainTable materializes a chain as whole tuples: each row's values
// followed by its tail values.
func chainTable(c *Chain) *storage.Table {
	t := storage.NewTable(c.Schema)
	t.Rows = c.appendRows(make([]storage.Tuple, 0, c.Len()), make([]storage.Value, c.Len()*(c.Width+len(c.Tail))))
	return t
}

// runTable runs plan over table through RunChain and returns its rows as
// whole tuples (chainTable).
func runTable(table *storage.Table, specs []window.Spec, plan *core.Plan, cfg Config) (*storage.Table, *Metrics, error) {
	chain, m, err := RunChain(context.Background(), table, specs, plan, cfg)
	if err != nil {
		return nil, nil, err
	}
	return chainTable(chain), m, nil
}

// runScheme plans specs with the given scheme and executes the plan.
func runScheme(t *testing.T, scheme string, table *storage.Table, entry *catalog.Entry, specs []window.Spec, memBytes int) (*Metrics, *core.Plan) {
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
	result, metrics, err := runTable(table, specs, plan, Config{MemoryBytes: memBytes, BlockSize: 4096, Distinct: entry.Distinct})
	if err != nil {
		t.Fatalf("%s execute: %v", scheme, err)
	}
	if result.Len() != table.Len() {
		t.Fatalf("%s: result has %d rows, want %d", scheme, result.Len(), table.Len())
	}
	return metrics, plan
}

// TestSchemesAgreeOnPaperQueries — every optimization scheme computes
// the definition's window function values on Q1–Q9 and F1–F6: the
// end-to-end correctness statement behind Figures 5–8, where the schemes
// differ only in speed (checkPlanners).
func TestSchemesAgreeOnPaperQueries(t *testing.T) {
	for _, c := range gen.Corpus(600) {
		t.Run(c.Name, func(t *testing.T) { checkPlanners(t, gen.Hits{}, c) })
	}
}

// TestRandomChainsAgainstReference — the window lists of generated
// statements, planned and run as TestSchemesAgreeOnPaperQueries runs the
// paper's.
func TestRandomChainsAgainstReference(t *testing.T) {
	hit := gen.Hits{}
	for _, c := range gen.Cases(200) {
		checkPlanners(t, hit, c)
	}
	hit.Require(t, "spilled", "concatenated")
}

// checkPlanners plans c's windows with CSO, BFO, ORCL and PSQL over the
// statement's WHERE survivors — every plan valid, and BFO's no costlier
// than the others' — and runs each at a spilling and an in-memory M,
// sequentially and partitioned three ways: every chain's rows are the
// oracle's.
func checkPlanners(t *testing.T, hit gen.Hits, c gen.Case) {
	t.Helper()
	s := c.Stmt.Chain()
	if len(s.Windows) == 0 {
		return
	}
	want, err := s.Project(c.Table)
	if err != nil {
		t.Fatalf("%s: oracle: %v", c.Name, err)
	}
	hit.Windows(s)
	input := &storage.Table{Schema: c.Table.Schema, Rows: s.Input(c.Table)}
	entry := catalog.New().Register(s.Table, input)
	ws := paper.WFs(s.Windows)
	for _, mem := range []int{4 << 10, 1 << 20} {
		opt := core.Options{Cost: entry.CostParams(mem, 512)}
		cso, err1 := core.CSO(ws, core.Unordered(), opt)
		bfo, err2 := core.BFO(ws, core.Unordered(), opt)
		orcl, err3 := core.ORCL(ws, core.Unordered(), opt)
		psql, err4 := core.PSQL(ws, core.Unordered())
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			t.Fatalf("%s: %v\n%s", c.Name, err, s.SQL())
		}
		for scheme, p := range map[string]*core.Plan{"CSO": cso, "BFO": bfo, "ORCL": orcl, "PSQL": psql} {
			if err := p.Validate(ws, core.Unordered()); err != nil {
				t.Fatalf("%s: %s: %v\n%s", c.Name, scheme, err, s.SQL())
			}
			if least, other := opt.Cost.PlanCost(bfo), opt.Cost.PlanCost(p); least > other+1e-9 {
				t.Errorf("%s: BFO costs %g, %s %g (%s)\n%s", c.Name, least, scheme, other, p, s.SQL())
			}
			for _, par := range []int{1, 3} {
				chain, m, err := RunChain(context.Background(), input, s.Windows, p, Config{MemoryBytes: mem, BlockSize: 512, Distinct: entry.Distinct, Parallelism: par})
				if err != nil {
					t.Fatalf("%s: %s M=%d P=%d: %v\n%s", c.Name, scheme, mem, par, err, s.SQL())
				}
				// The chain's columns are the input's, then one per step in plan
				// order; the oracle's, the input's, then the windows'.
				arity, got := input.Schema.Len(), chainTable(chain).Rows
				for i, row := range got {
					out := append(make(storage.Tuple, 0, arity+len(p.Steps)), row[:arity]...)
					for id := range s.Windows {
						out = append(out, row[arity+slices.IndexFunc(p.Steps, func(st core.Step) bool { return st.WF.ID == id })])
					}
					got[i] = out
				}
				if err := gen.SameMultiset(got, want); err != nil {
					t.Fatalf("%s: %s M=%d P=%d: %v\n%s\nplan %s", c.Name, scheme, mem, par, err, s.SQL(), p)
				}
				chain.Release()
				if m.TotalBlocks() > 0 {
					hit["spilled"]++
				}
				if m.Concatenated {
					hit["concatenated"]++
				}
			}
		}
	}
}

// TestCSOBeatsPSQLOnIO — on Q9 the CSO chain must incur strictly less spill
// I/O than PSQL's 7 full sorts (the Figure 8 effect, in blocks).
func TestCSOBeatsPSQLOnIO(t *testing.T) {
	table, entry := smallWebSales(6000)
	specs := paper.Q9()
	mem := 24 << 10 // small enough that full sorts spill
	csoM, csoPlan := runScheme(t, "CSO", table, entry, specs, mem)
	psqlM, _ := runScheme(t, "PSQL", table, entry, specs, mem)
	if csoM.TotalBlocks() >= psqlM.TotalBlocks() {
		t.Errorf("CSO I/O %d ≥ PSQL I/O %d (CSO plan %s)",
			csoM.TotalBlocks(), psqlM.TotalBlocks(), csoPlan.PaperString())
	}
	orclM, _ := runScheme(t, "ORCL", table, entry, specs, mem)
	if csoM.TotalBlocks() >= orclM.TotalBlocks() {
		t.Errorf("CSO I/O %d ≥ ORCL I/O %d", csoM.TotalBlocks(), orclM.TotalBlocks())
	}
}

// TestStepMetrics — per-step accounting matches totals.
func TestStepMetrics(t *testing.T) {
	table, entry := smallWebSales(3000)
	specs := paper.Q6()
	m, _ := runScheme(t, "CSO", table, entry, specs, 16<<10)
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
	if err := gen.SameMultiset(fileResult.Rows, memResult.Rows); err != nil {
		t.Fatalf("file-backed results differ from memory-backed: %v", err)
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

	var runs, passes, units, external, buckets, spilled, resident int
	var inmem bool
	if _, err := fmt.Sscanf(m.Steps[0].Detail, "runs=%d passes=%d inmem=%t", &runs, &passes, &inmem); err != nil || inmem || runs < 2 {
		t.Fatalf("FS step did not spill: %q (%v)", m.Steps[0].Detail, err)
	}
	var segments int
	if _, err := fmt.Sscanf(m.Steps[1].Detail, "segments=%d units=%d external=%d", &segments, &units, &external); err != nil || external == 0 {
		t.Fatalf("SS step sorted no unit externally: %q (%v)", m.Steps[1].Detail, err)
	}
	if _, err := fmt.Sscanf(m.Steps[2].Detail, "buckets=%d spilled=%d resident=%d external=%d", &buckets, &spilled, &resident, &external); err != nil || spilled == 0 {
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
