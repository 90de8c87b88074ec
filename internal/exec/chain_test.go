package exec

import (
	"context"
	"strings"
	"testing"

	"repro/internal/attrs"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/paper"
	"repro/internal/storage"
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

// checkChain runs plan both ways — the lean RunChain and the materializing
// Run — and holds them to each other, to the split at the plan's last
// reorder, and to window.Reference.
func checkChain(t *testing.T, table *storage.Table, specs []window.Spec, plan *core.Plan, cfg Config) (*Chain, *Metrics) {
	t.Helper()
	chain, m, err := RunChain(context.Background(), table, specs, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ran, _, err := Run(table, specs, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	result := chain.Table()
	sameTable(t, "lean vs Run", result, ran)

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
// first, in the middle and last: the lean result, the materializing
// wrapper and the reference agree wherever the split falls.
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
		"no reorder":   {[]core.Step{none(ws[0])}, 0}, // unmatched input: held to Run only, below
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
				// no reference to hold; the lean and materialized forms must
				// still agree, and nothing may be copied or reordered.
				chain, _, err := RunChain(context.Background(), table, specs, plan, c)
				if err != nil {
					t.Fatal(err)
				}
				ran, _, err := Run(table, specs, plan, c)
				if err != nil {
					t.Fatal(err)
				}
				sameTable(t, "lean vs Run", chain.Table(), ran)
				if &chain.Rows[0][0] != &table.Rows[0][0] {
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
// plans need: lean ≡ Run ≡ reference.
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
