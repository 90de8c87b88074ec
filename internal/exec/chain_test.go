package exec

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/attrs"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/paper"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/window"
)

// sameTable fails unless got and want hold identical rows in identical
// order.
func sameTable(t *testing.T, what string, got, want *storage.Table) {
	t.Helper()
	if got.Len() != want.Len() || got.Schema.Len() != want.Schema.Len() {
		t.Fatalf("%s: %d rows x %d columns, want %d x %d", what, got.Len(), got.Schema.Len(), want.Len(), want.Schema.Len())
	}
	for i, row := range got.Rows {
		if len(row) != len(want.Rows[i]) {
			t.Fatalf("%s: row %d has %d columns, want %d", what, i, len(row), len(want.Rows[i]))
		}
		for c := range row {
			if !storage.Identical(row[c], want.Rows[i][c]) {
				t.Fatalf("%s: row %d col %d = %s, want %s", what, i, c, row[c], want.Rows[i][c])
			}
		}
	}
}

// checkChain runs plan through RunChain and holds the result to the split
// at the plan's last reorder and to window.Reference.
func checkChain(t *testing.T, table *storage.Table, specs []window.Spec, plan *core.Plan, cfg Config) (*Chain, *Metrics) {
	t.Helper()
	chain, m, err := RunChain(context.Background(), table, specs, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	result := chainTable(chain)

	arity, last := table.Schema.Len(), lastReorder(plan)
	if chain.Width != arity+last || len(chain.Tail) != len(plan.Steps)-last {
		t.Fatalf("chain split: width %d, %d tail vectors; want %d and %d", chain.Width, len(chain.Tail), arity+last, len(plan.Steps)-last)
	}
	if chain.Schema.Len() != arity+len(plan.Steps) {
		t.Fatalf("chain schema has %d columns, want %d", chain.Schema.Len(), arity+len(plan.Steps))
	}
	if len(m.Steps) != len(plan.Steps) {
		t.Fatalf("%d step metrics for %d steps", len(m.Steps), len(plan.Steps))
	}
	for i, s := range m.Steps {
		if s.Rows != int64(table.Len()) || s.WFID != plan.Steps[i].WF.ID || s.Reorder != plan.Steps[i].Reorder {
			t.Fatalf("step %d metrics %+v do not describe the step", i, s)
		}
	}

	got := derived(t, result, plan, arity)
	for _, step := range plan.Steps {
		id, spec := step.WF.ID, specs[step.WF.ID]
		want, err := window.Reference(table.Rows, spec)
		if err != nil {
			t.Fatal(err)
		}
		for r, v := range want {
			tag := table.Rows[r][datagen.ColOrderNumber].Int64()
			if !storage.Identical(got[tag][id], v) {
				t.Fatalf("%s: order %d = %s, reference %s", spec.Name, tag, got[tag][id], v)
			}
		}
	}
	return chain, m
}

// TestChainSplitsAtLastReorder — hand-built chains with the last reorder
// first, in the middle and last: the chain and the reference agree wherever
// the split falls.
func TestChainSplitsAtLastReorder(t *testing.T) {
	table := datagen.WebSales(datagen.WebSalesConfig{Rows: 1500, Seed: 11, ItemDistinct: 6, PadBytes: 16})
	item := attrs.MakeSet(paper.Item)
	specs := []window.Spec{
		{Name: "by_date", Kind: window.Rank, Arg: -1, PK: item, OK: attrs.AscSeq(paper.Date)},
		{Name: "by_bill", Kind: window.Rank, Arg: -1, PK: item, OK: attrs.AscSeq(paper.Bill)},
		{Name: "dense_bill", Kind: window.DenseRank, Arg: -1, PK: item, OK: attrs.AscSeq(paper.Bill)},
		{Name: "qty_sum", Kind: window.Sum, Arg: paper.Quantity, PK: item, OK: attrs.AscSeq(paper.Bill)},
		{Name: "dense_date", Kind: window.DenseRank, Arg: -1, PK: item, OK: attrs.AscSeq(paper.Date)},
	}
	ws := paper.WFs(specs)
	fs := core.Step{WF: ws[0], Reorder: core.ReorderFS, SortKey: attrs.AscSeq(paper.Item, paper.Date)}
	ss := core.Step{WF: ws[1], Reorder: core.ReorderSS, Alpha: attrs.AscSeq(paper.Item), Beta: attrs.AscSeq(paper.Bill)}
	none := func(wf core.WF) core.Step { return core.Step{WF: wf} }
	cfg := Config{MemoryBytes: 1 << 20, BlockSize: 1024}

	for name, tc := range map[string]struct {
		steps []core.Step
		last  int
	}{
		"no reorder":   {[]core.Step{none(ws[0])}, 0}, // unmatched input: no reference, below
		"first":        {[]core.Step{{WF: ws[1], Reorder: core.ReorderFS, SortKey: attrs.AscSeq(paper.Item, paper.Bill)}, none(ws[2]), none(ws[3])}, 0},
		"middle":       {[]core.Step{fs, ss, none(ws[2]), none(ws[3])}, 1},
		"last":         {[]core.Step{fs, none(ws[4]), ss}, 2},
		"middle spill": {[]core.Step{fs, ss, none(ws[2])}, 1},
	} {
		t.Run(name, func(t *testing.T) {
			plan := &core.Plan{Scheme: "test", Steps: tc.steps}
			if got := lastReorder(plan); got != tc.last {
				t.Fatalf("lastReorder = %d, want %d", got, tc.last)
			}
			c := cfg
			if strings.HasSuffix(name, "spill") {
				c.MemoryBytes = 8 << 10
			}
			if name == "no reorder" {
				// The unsorted table does not match the function, so there is
				// no reference to hold; nothing may be copied or reordered.
				chain, _, err := RunChain(context.Background(), table, specs, plan, c)
				if err != nil {
					t.Fatal(err)
				}
				if chain.Len() != table.Len() || &chain.Rows[0][0] != &table.Rows[0][0] {
					t.Fatal("a chain without a reorder copied its input rows")
				}
				return
			}
			chain, _ := checkChain(t, table, specs, plan, c)
			if tc.last == 0 {
				// One leading reorder: the rows are the table's own tuples,
				// permuted.
				own := make(map[*storage.Value]bool, table.Len())
				for _, row := range table.Rows {
					own[&row[0]] = true
				}
				for i, row := range chain.Rows {
					if !own[&row[0]] {
						t.Fatalf("row %d was copied although the chain's only reorder leads it", i)
					}
				}
			}
		})
	}
}

// TestChainOnPaperQueries — Q1–Q3 and Q6–Q9 planned by CSO under a budget
// that spills, plus Q4/Q5 over the sorted and grouped inputs their SS
// plans need: chain ≡ reference.
func TestChainOnPaperQueries(t *testing.T) {
	gen := datagen.WebSalesConfig{Rows: 2500, Seed: 42, PadBytes: 24}
	tables := map[string]*storage.Table{
		"web_sales":   datagen.WebSales(gen),
		"web_sales_s": datagen.WebSalesSorted(gen),
		"web_sales_g": datagen.WebSalesGrouped(gen),
	}
	inputs := map[string]core.Props{
		"web_sales":   core.Unordered(),
		"web_sales_s": core.TotallyOrdered(attrs.AscSeq(paper.Quantity)),
		"web_sales_g": {X: attrs.MakeSet(paper.Quantity), Grouped: true},
	}
	type query struct {
		name, table string
		specs       []window.Spec
	}
	var queries []query
	for _, mq := range paper.MicroQueries() {
		queries = append(queries, query{mq.Name, mq.Table, []window.Spec{mq.Spec}})
	}
	queries = append(queries,
		query{"Q6", "web_sales", paper.Q6()}, query{"Q7", "web_sales", paper.Q7()},
		query{"Q8", "web_sales", paper.Q8()}, query{"Q9", "web_sales", paper.Q9()})
	const mem, bs = 24 << 10, 4096
	for _, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			table := tables[q.table]
			entry := catalog.New().Register(q.table, table)
			plan, err := core.CSO(paper.WFs(q.specs), inputs[q.table], core.Options{Cost: entry.CostParams(mem, bs)})
			if err != nil {
				t.Fatal(err)
			}
			checkChain(t, table, q.specs, plan, Config{MemoryBytes: mem, BlockSize: bs, Distinct: entry.Distinct})
		})
	}
}

// TestTailSpecReadsTupleColumnsOnly — a function evaluated after the last
// reorder sees the input columns and the derived columns that are in the
// tuples; one that names a tail column is rejected at validation, not
// evaluated against a row that does not have the column.
func TestTailSpecReadsTupleColumnsOnly(t *testing.T) {
	table := datagen.WebSales(datagen.WebSalesConfig{Rows: 200, Seed: 3, PadBytes: 8})
	arity := attrs.ID(table.Schema.Len())
	item := attrs.MakeSet(paper.Item)
	specs := []window.Spec{
		{Name: "r", Kind: window.Rank, Arg: -1, PK: item, OK: attrs.AscSeq(paper.Date)},
		{Name: "sum_r", Kind: window.Sum, Arg: arity, PK: item, OK: attrs.AscSeq(paper.Date)}, // reads r
	}
	ws := paper.WFs(specs)
	sortItemDate := attrs.AscSeq(paper.Item, paper.Date)

	// r rides in the tuple through the second reorder: readable.
	carried := &core.Plan{Steps: []core.Step{
		{WF: ws[0], Reorder: core.ReorderFS, SortKey: sortItemDate},
		{WF: ws[1], Reorder: core.ReorderFS, SortKey: sortItemDate},
	}}
	if _, _, err := RunChain(context.Background(), table, specs, carried, Config{}); err != nil {
		t.Fatalf("spec reading an in-tuple derived column: %v", err)
	}
	// r is a tail vector: not readable.
	tail := &core.Plan{Steps: []core.Step{
		{WF: ws[0], Reorder: core.ReorderFS, SortKey: sortItemDate},
		{WF: ws[1]},
	}}
	if _, _, err := RunChain(context.Background(), table, specs, tail, Config{}); err == nil || !strings.Contains(err.Error(), "requires a value column") {
		t.Fatalf("spec reading a tail column: err = %v, want a validation error", err)
	}
}

// chainShape is one input of the pre-L matrix: a small web_sales variant and
// whether its Full Sort steps drop PARTITION BY (the item column is constant
// there, so the order they leave still serves the partitioned steps).
type chainShape struct {
	table  *storage.Table
	global bool
}

// chainShapes builds the data shapes the in-place steps have to survive:
// many partitions, one partition the size of the table, every key a tie
// (only stability decides the sequence), one key holding most of the rows,
// one row, and none.
func chainShapes() map[string]chainShape {
	gen := func(edit func(i int, row storage.Tuple)) *storage.Table {
		t := datagen.WebSales(datagen.WebSalesConfig{Rows: 400, Seed: 21, ItemDistinct: 5, DateDistinct: 7,
			TimeDistinct: 9, BillDistinct: 6, ShipDistinct: 4, PadBytes: 16})
		for i, row := range t.Rows {
			row = row.Clone()
			edit(i, row)
			t.Rows[i] = row
		}
		return t
	}
	one := storage.Int(1)
	uniform := gen(func(int, storage.Tuple) {})
	return map[string]chainShape{
		"uniform":          {table: uniform},
		"single partition": {table: gen(func(_ int, row storage.Tuple) { row[paper.Item] = one }), global: true},
		"all ties": {table: gen(func(_ int, row storage.Tuple) {
			for _, c := range []attrs.ID{paper.Item, paper.Date, paper.Bill, paper.Time, paper.Ship} {
				row[c] = one
			}
		})},
		"hot key": {table: gen(func(i int, row storage.Tuple) {
			if i%5 < 3 {
				row[paper.Item] = one
			}
		})},
		"one row": {table: &storage.Table{Schema: uniform.Schema, Rows: uniform.Rows[:1]}},
		"empty":   {table: &storage.Table{Schema: uniform.Schema}},
	}
}

// chainOf builds a valid chain whose step i reorders with kinds[i] — every
// step a reorder, so L = len(kinds)-1 — for functions partitioned by item
// and ordered by a column of their own. A Segmented Sort needs the item
// order an earlier step left, so kinds[0] is never SS. The functions cycle
// through kinds of evaluation: peer walks, prefix sums over a frame, and a
// position-sensitive lag, which tells one tie order from another.
func chainOf(kinds []core.ReorderKind, global bool) ([]window.Spec, *core.Plan) {
	orderBy := []attrs.ID{paper.Date, paper.Bill, paper.Time, paper.Ship}
	item := attrs.MakeSet(paper.Item)
	specs := make([]window.Spec, len(kinds))
	plan := &core.Plan{Scheme: "test"}
	for i, kind := range kinds {
		spec := window.Spec{Name: fmt.Sprintf("w%d", i), Arg: -1, PK: item, OK: attrs.AscSeq(orderBy[i])}
		switch i % 4 {
		case 0:
			spec.Kind = window.Rank
		case 1:
			spec.Kind, spec.Arg = window.Sum, paper.Quantity
		case 2:
			spec.Kind = window.CumeDist
		case 3:
			spec.Kind, spec.Arg, spec.N = window.Lag, paper.Quantity, 1
		}
		step := core.Step{Reorder: kind}
		switch kind {
		case core.ReorderFS:
			step.SortKey = attrs.AscSeq(paper.Item, orderBy[i])
			if global {
				spec.PK, step.SortKey = 0, spec.OK
			}
		case core.ReorderHS:
			step.HashKey, step.SortKey = item, attrs.AscSeq(paper.Item, orderBy[i])
		case core.ReorderSS:
			step.Alpha, step.Beta = attrs.AscSeq(paper.Item), spec.OK
		}
		specs[i] = spec
		step.WF = spec.WF(i)
		plan.Steps = append(plan.Steps, step)
	}
	return specs, plan
}

// referenceSteps is the chain by the book, sharing nothing with RunChain
// but the operators: each step reorders tagged rows it then collects,
// evaluates with window.Reference over exactly that sequence, and copies
// every row to append the value. It returns, per step, the rows as the step
// left them and the positions its reorder flagged as segment starts.
func referenceSteps(t *testing.T, table *storage.Table, specs []window.Spec, plan *core.Plan, cfg Config) (after [][]storage.Tuple, boundaries [][]int) {
	t.Helper()
	rows, err := stream.Collect(stream.FromTuples(table.Rows))
	if err != nil {
		t.Fatal(err)
	}
	for i, step := range plan.Steps {
		var comparisons int64
		rcfg, _ := reorderConfig(cfg, &comparisons, nil)
		out, _, err := applyReorder(stream.FromRows(rows), step, cfg, rcfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rows, err = stream.Collect(out); err != nil {
			t.Fatal(err)
		}
		tuples := make([]storage.Tuple, len(rows))
		var starts []int
		for k, r := range rows {
			if tuples[k] = r.Tuple; r.Boundary {
				starts = append(starts, k)
			}
		}
		vals, err := window.Reference(tuples, specs[i])
		if err != nil {
			t.Fatal(err)
		}
		for k := range rows {
			tuples[k] = tuples[k].Append(vals[k])
			rows[k].Tuple = tuples[k]
		}
		after, boundaries = append(after, tuples), append(boundaries, starts)
	}
	return after, boundaries
}

// TestStepsBeforeLastReorderKeepTheSequence — the one-array path as a
// sequence differential (every sort is stable, so a chain has one right
// answer, not a multiset of them): FS, HS and SS each as a reorder before
// L ∈ {1, 2, 3}, with and without a budget that spills, over every shape.
// The row array is driven step by step and held to the reorder's Boundary
// flags; RunChain's rows are held position by position to the reference
// chain, and each ends in exactly the L slots the arena gave it.
func TestStepsBeforeLastReorderKeepTheSequence(t *testing.T) {
	fs, hs, ss := core.ReorderFS, core.ReorderHS, core.ReorderSS
	chains := map[string][]core.ReorderKind{
		"L1 FS": {fs, ss}, "L1 HS": {hs, fs},
		"L2 FS": {fs, fs, hs}, "L2 HS": {fs, hs, ss}, "L2 SS": {hs, ss, fs},
		"L3 FS": {hs, ss, fs, ss}, "L3 HS": {fs, ss, hs, fs}, "L3 SS": {fs, ss, ss, hs},
	}
	for shapeName, shape := range chainShapes() {
		for chainName, kinds := range chains {
			for _, mem := range []int{0, 4 << 10} {
				t.Run(fmt.Sprintf("%s/%s/M=%d", shapeName, chainName, mem), func(t *testing.T) {
					table, last := shape.table, len(kinds)-1
					specs, plan := chainOf(kinds, shape.global)
					cfg := Config{MemoryBytes: mem, BlockSize: 512, HSBuckets: 3}
					after, boundaries := referenceSteps(t, table, specs, plan, cfg)

					var comparisons int64
					rcfg, stats := reorderConfig(cfg, &comparisons, storage.NewTupleArena(table.Schema.Len()+last))
					own := newRowArray(table, rcfg.Arena)
					var ev window.Evaluator
					for i, step := range plan.Steps {
						if _, err := own.reorder(step, cfg, rcfg, 0); err != nil {
							t.Fatal(err)
						}
						if starts := append([]int{0}, own.starts...); table.Len() > 0 && !slices.Equal(starts, boundaries[i]) {
							t.Fatalf("step %d: segments start at %v, the reorder flagged %v", i, starts, boundaries[i])
						}
						for k, row := range own.rows {
							for c, v := range row {
								if !storage.Identical(v, after[i][k][c]) {
									t.Fatalf("step %d: row %d col %d = %s, reference chain has %s", i, k, c, v, after[i][k][c])
								}
							}
						}
						if i < last {
							if err := ev.ExtendSlice(own.rows, specs[i]); err != nil {
								t.Fatal(err)
							}
						}
					}
					if spilled := stats.BlocksWritten() > 0; spilled != (mem > 0 && table.Len() > 1) {
						t.Fatalf("M = %d over %d rows: spilled = %v", mem, table.Len(), spilled)
					}

					chain, _, err := RunChain(context.Background(), table, specs, plan, cfg)
					if err != nil {
						t.Fatal(err)
					}
					sameTable(t, "RunChain vs the reference chain", chainTable(chain), &storage.Table{Schema: chain.Schema, Rows: after[last]})
					for k, row := range chain.Rows {
						if len(row) != chain.Width || cap(row) != chain.Width {
							t.Fatalf("chain row %d: len %d cap %d, want both %d: an Extend copied", k, len(row), cap(row), chain.Width)
						}
					}
				})
			}
		}
	}
}

// TestRunChainBytesPerRow pins what an in-memory chain allocates per input
// row: the arena slab (one slot per column and per in-tuple derived
// column), the one row array, the one evaluation scratch (step 0 has no
// PARTITION BY, so it is as long as the table) and a tail vector per step
// from L on — and nothing per reorder. A four-step chain is run with its
// last reorder at L = 1, 2 and 3: each reorder moved in front of L trades
// a 16-byte tail slot for a 16-byte arena slot, so the three cost the
// same.
func TestRunChainBytesPerRow(t *testing.T) {
	const n = 20_000
	table := datagen.WebSales(datagen.WebSalesConfig{Rows: n, Seed: 20120827, PadBytes: 24})
	item, global := attrs.MakeSet(paper.Item), attrs.Set(0)
	rank := func(kind window.Kind, pk attrs.Set, ok attrs.ID) window.Spec {
		return window.Spec{Kind: kind, Arg: -1, PK: pk, OK: attrs.AscSeq(ok)}
	}
	bytesPerRow := func(last int) float64 {
		// Steps 0 and 1 always reorder; steps 2 and 3 do when L reaches
		// them, and otherwise ride on the order step 1 left.
		specs := []window.Spec{rank(window.Rank, global, paper.Time), rank(window.Rank, item, paper.Date),
			rank(window.DenseRank, item, paper.Date), rank(window.CumeDist, item, paper.Date)}
		if last >= 2 {
			specs[2] = rank(window.Rank, item, paper.Bill)
		}
		if last >= 3 {
			specs[3] = rank(window.Rank, item, paper.Ship)
		}
		plan := &core.Plan{Scheme: "test"}
		for i, spec := range specs {
			step := core.Step{WF: spec.WF(i)}
			if i <= last {
				step.Reorder, step.SortKey = core.ReorderFS, spec.PK.AscSeq().Concat(spec.OK)
			}
			plan.Steps = append(plan.Steps, step)
		}
		run := func() {
			if _, m, err := RunChain(context.Background(), table, specs, plan, Config{}); err != nil || m.TotalBlocks() != 0 {
				t.Fatalf("L = %d: err %v, metrics %+v; want an in-memory run", last, err, m)
			}
		}
		// The sort kernel's workspace is allocated once per process, and
		// chains never released take every list the arena pool holds (at
		// most GOMAXPROCS), so what is measured is a chain's own slab.
		for range runtime.GOMAXPROCS(0) {
			run()
		}
		const reps = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / reps / n
	}

	per := map[int]float64{1: bytesPerRow(1), 2: bytesPerRow(2), 3: bytesPerRow(3)}
	t.Logf("bytes per row at L = 1, 2, 3: %.1f, %.1f, %.1f", per[1], per[2], per[3])
	// Per row at L = 2: 16 B × (columns + 2) of slab, 24 B of array header,
	// 16 B of scratch, 2 × 16 B of tail.
	exact := float64(16*(table.Schema.Len()+2) + 24 + 16 + 2*16)
	if bound := exact * 1.1; per[2] > bound { // the race detector's allocator adds 6 %
		t.Errorf("three reorders allocate %.1f B/row, want at most %.1f (slab, array, scratch and tail are %.0f)", per[2], bound, exact)
	}
	if grew := per[3] - per[1]; grew > 4 {
		t.Errorf("moving two reorders in front of L adds %.1f B/row: something is allocated per step", grew)
	}
}

// TestHashedSortHotKeyMatchesReference — a Hashed Sort whose hottest group
// is larger than the budget computes what window.Reference does. Three rows
// in four are set to warehouse 7, so that group's bucket spills and is
// sorted externally while the other fifteen groups share the rest.
func TestHashedSortHotKeyMatchesReference(t *testing.T) {
	table := datagen.WebSales(datagen.WebSalesConfig{Rows: 4000, Seed: 2, PadBytes: 16})
	for i, row := range table.Rows {
		if i%4 != 0 {
			row[paper.Warehouse] = storage.Int(7)
		}
	}
	warehouse := attrs.MakeSet(paper.Warehouse)
	specs := []window.Spec{{Name: "rank", Kind: window.Rank, Arg: -1, PK: warehouse, OK: attrs.AscSeq(paper.Time)}}
	plan := &core.Plan{Scheme: "manual", Steps: []core.Step{{
		WF: paper.WFs(specs)[0], Reorder: core.ReorderHS, HashKey: warehouse, SortKey: attrs.AscSeq(paper.Warehouse, paper.Time),
	}}}
	chain, m := checkChain(t, table, specs, plan, Config{MemoryBytes: 32 << 10, BlockSize: 4096})
	defer chain.Release()
	var buckets, spilled, resident, external int
	if _, err := fmt.Sscanf(m.Steps[0].Detail, "buckets=%d spilled=%d resident=%d external=%d", &buckets, &spilled, &resident, &external); err != nil {
		t.Fatalf("step detail %q: %v", m.Steps[0].Detail, err)
	}
	if spilled < 1 || external < 1 {
		t.Fatalf("%s: want warehouse 7's bucket spilled and sorted externally", m.Steps[0].Detail)
	}
}
