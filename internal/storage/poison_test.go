package storage_test

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	windowdb "repro"
	"repro/internal/attrs"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/paper"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/window"
)

// chainTable materializes a chain as whole tuples: each row's values
// followed by its tail values.
func chainTable(c *exec.Chain) *storage.Table {
	t := storage.NewTable(c.Schema)
	w := c.Schema.Len()
	t.Rows = make([]storage.Tuple, c.Len())
	for i := range t.Rows {
		t.Rows[i] = make(storage.Tuple, w)
		for k := range w {
			t.Rows[i][k] = c.At(i, k)
		}
	}
	return t
}

// checkPoisoned runs plan through the executor and holds the result to the
// reference evaluator, kind-exact, and to the input: every derived value,
// every base column of every row, and — when derived columns ride in the
// tuples — every row ending exactly at the chain's width, which only holds
// if no Extend had to copy. With rewound arena memory poisoned, a row or a
// string read after its memory was handed back fails one of the three.
func checkPoisoned(t *testing.T, table *storage.Table, specs []window.Spec, plan *core.Plan, cfg exec.Config) *exec.Metrics {
	t.Helper()
	chain, m, err := exec.RunChain(context.Background(), table, specs, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Len() != table.Len() {
		t.Fatalf("%d rows out for %d in", chain.Len(), table.Len())
	}
	arity := table.Schema.Len()
	spilled := m.TotalBlocks() > 0
	byTag := make(map[int64]storage.Tuple, table.Len())
	for _, row := range table.Rows {
		byTag[row[datagen.ColOrderNumber].Int64()] = row
	}
	result := chainTable(chain)
	got := make(map[int64]storage.Tuple, result.Len())
	for i, row := range result.Rows {
		if r := chain.Rows[i]; (chain.Width > arity || spilled) && (len(r) != chain.Width || cap(r) != chain.Width) {
			t.Fatalf("chain row %d: len %d cap %d, want both %d", i, len(r), cap(r), chain.Width)
		}
		tag := row[datagen.ColOrderNumber].Int64()
		in := byTag[tag]
		if in == nil {
			t.Fatalf("row %d carries order number %d, which no input row has", i, tag)
		}
		for c := range in {
			if !storage.Identical(row[c], in[c]) {
				t.Fatalf("order %d col %d = %s %q, input had %q", tag, c, row[c].Kind(), row[c], in[c])
			}
		}
		got[tag] = row
	}
	if len(got) != table.Len() {
		t.Fatalf("%d distinct rows out for %d in", len(got), table.Len())
	}
	for pos, step := range plan.Steps {
		spec := specs[step.WF.ID]
		want, err := window.Reference(table.Rows, spec)
		if err != nil {
			t.Fatal(err)
		}
		for r, v := range want {
			tag := table.Rows[r][datagen.ColOrderNumber].Int64()
			if g := got[tag][arity+pos]; !storage.Identical(g, v) {
				t.Fatalf("%s: order %d = %s %q, reference %q", spec.Name, tag, g.Kind(), g, v)
			}
		}
	}
	return m
}

// detail scans a step's Detail string.
func detail(t *testing.T, m *exec.Metrics, step int, format string, into ...any) {
	t.Helper()
	if _, err := fmt.Sscanf(m.Steps[step].Detail, format, into...); err != nil {
		t.Fatalf("step %d detail %q: %v", step, m.Steps[step].Detail, err)
	}
}

// TestRewoundMemoryIsNeverRead is the use-after-rewind matrix: with every
// Release and Reset overwriting what it rewinds over, spilling chains of
// every shape that rewinds — the paper's queries under CSO plans at the
// benchmark's budget, and hand-built chains that reach each drain point —
// still equal the reference.
func TestRewoundMemoryIsNeverRead(t *testing.T) {
	defer storage.PoisonRewound()()

	t.Run("paper queries", func(t *testing.T) {
		const bs = 1024
		gen := datagen.WebSalesConfig{Rows: 3000, Seed: 42, PadBytes: 24}
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
		for _, q := range queries {
			t.Run(q.name, func(t *testing.T) {
				table := tables[q.table]
				// M = floor(0.85*sqrt(B/2)) blocks, the benchmark's chain_spill budget.
				mem := max(int(0.85*math.Sqrt(float64(table.ByteSize()/bs)/2)), 3) * bs
				entry := catalog.New().Register(q.table, table)
				plan, err := core.CSO(paper.WFs(q.specs), inputs[q.table], core.Options{Cost: entry.CostParams(mem, bs)})
				if err != nil {
					t.Fatal(err)
				}
				m := checkPoisoned(t, table, q.specs, plan, exec.Config{MemoryBytes: mem, BlockSize: bs, Distinct: entry.Distinct})
				if m.TotalBlocks() == 0 && !strings.HasSuffix(q.table, "_s") && !strings.HasSuffix(q.table, "_g") {
					t.Fatalf("%s did not spill at M = %d bytes", plan, mem)
				}
			})
		}
	})

	table := datagen.WebSales(datagen.WebSalesConfig{Rows: 3000, Seed: 9, ItemDistinct: 4, WarehouseDistinct: 5, PadBytes: 24})
	rank := func(name string, pk attrs.ID, ok attrs.ID) window.Spec {
		return window.Spec{Name: name, Kind: window.Rank, Arg: -1, PK: attrs.MakeSet(pk), PKOrder: attrs.AscSeq(pk), OK: attrs.AscSeq(ok)}
	}
	specs := []window.Spec{
		rank("item_by_date", paper.Item, paper.Date),
		rank("item_by_bill", paper.Item, paper.Bill),
		rank("wh_by_time", paper.Warehouse, paper.Time),
		rank("item_by_time", paper.Item, paper.Time),
	}
	ws := paper.WFs(specs)
	fsItemDate := core.Step{WF: ws[0], Reorder: core.ReorderFS, SortKey: attrs.AscSeq(paper.Item, paper.Date)}
	ssItemBill := core.Step{WF: ws[1], Reorder: core.ReorderSS, Alpha: attrs.AscSeq(paper.Item), Beta: attrs.AscSeq(paper.Bill)}
	hsWarehouse := core.Step{WF: ws[2], Reorder: core.ReorderHS, HashKey: attrs.MakeSet(paper.Warehouse), SortKey: attrs.AscSeq(paper.Warehouse, paper.Time)}
	hsItem := core.Step{WF: ws[3], Reorder: core.ReorderHS, HashKey: attrs.MakeSet(paper.Item), SortKey: attrs.AscSeq(paper.Item, paper.Time)}
	fsItemTime := core.Step{WF: ws[3], Reorder: core.ReorderFS, SortKey: attrs.AscSeq(paper.Item, paper.Time)}

	t.Run("FS to SS to HS", func(t *testing.T) {
		plan := &core.Plan{Scheme: "test", Steps: []core.Step{fsItemDate, ssItemBill, hsWarehouse}}
		m := checkPoisoned(t, table, specs, plan, exec.Config{MemoryBytes: 8 << 10, BlockSize: 1024, HSBuckets: 4})
		var runs, passes, segments, units, external, buckets, spilled, resident int
		var inmem bool
		if detail(t, m, 0, "runs=%d passes=%d inmem=%t", &runs, &passes, &inmem); inmem {
			t.Fatal("FS did not spill")
		}
		if detail(t, m, 1, "segments=%d units=%d external=%d", &segments, &units, &external); external == 0 {
			t.Fatal("SS sorted no unit externally")
		}
		if detail(t, m, 2, "buckets=%d spilled=%d resident=%d external=%d", &buckets, &spilled, &resident, &external); spilled == 0 {
			t.Fatal("HS flushed no bucket")
		}
	})

	t.Run("FS to SS keeps the in-memory row sequence", func(t *testing.T) {
		// Four items over 3000 rows: both sorts see
		// ties, and every sort — kernel, run formation, merge — is stable, so
		// the rows leave in the one sequence whether or not M made them spill.
		plan := &core.Plan{Scheme: "test", Steps: []core.Step{fsItemDate, ssItemBill}}
		sequence := func(cfg exec.Config) ([]int64, *exec.Metrics) {
			chain, m, err := exec.RunChain(context.Background(), table, specs, plan, cfg)
			if err != nil {
				t.Fatal(err)
			}
			tags := make([]int64, chain.Len())
			for i, row := range chain.Rows {
				tags[i] = row[datagen.ColOrderNumber].Int64()
			}
			return tags, m
		}
		want, m := sequence(exec.Config{BlockSize: 1024})
		if m.TotalBlocks() != 0 {
			t.Fatalf("the chain spilled %d blocks without a budget", m.TotalBlocks())
		}
		got, m := sequence(exec.Config{MemoryBytes: 8 << 10, BlockSize: 1024})
		var runs, passes, segments, units, external int
		var inmem bool
		if detail(t, m, 0, "runs=%d passes=%d inmem=%t", &runs, &passes, &inmem); inmem {
			t.Fatal("FS did not spill")
		}
		if detail(t, m, 1, "segments=%d units=%d external=%d", &segments, &units, &external); external == 0 {
			t.Fatal("SS sorted no unit externally")
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("row %d is order %d at M = 8 KB and order %d without a budget", i, got[i], want[i])
			}
		}
	})

	t.Run("HS to HS with resident buckets", func(t *testing.T) {
		// Twenty even buckets and a budget of half the table: about half
		// the buckets are flushed, the others survive the build phase in
		// memory — in the arena the second HS, whose input they are, resets.
		wide := datagen.WebSales(datagen.WebSalesConfig{Rows: 3000, Seed: 5, ItemDistinct: 40, WarehouseDistinct: 30, PadBytes: 24})
		plan := &core.Plan{Scheme: "test", Steps: []core.Step{hsItem, hsWarehouse, fsItemDate}}
		m := checkPoisoned(t, wide, specs, plan, exec.Config{MemoryBytes: wide.ByteSize() / 2, BlockSize: 1024, HSBuckets: 20})
		for step := 0; step < 2; step++ {
			var buckets, spilled, resident, external int
			if detail(t, m, step, "buckets=%d spilled=%d resident=%d external=%d", &buckets, &spilled, &resident, &external); spilled == 0 || resident == 0 {
				t.Fatalf("HS step %d: %d spilled and %d resident buckets, want both", step, spilled, resident)
			}
		}
	})

	t.Run("each reorder before the last", func(t *testing.T) {
		// The chain's one row array under every way of refilling it: a Full
		// Sort that sorts it where it lies and merges over its arena, and
		// a Hashed and a Segmented Sort drained back into the slots they
		// have read — with one item holding three rows in five, so a bucket
		// and a unit of most of the table.
		hot := datagen.WebSales(datagen.WebSalesConfig{Rows: 3000, Seed: 9, ItemDistinct: 4, WarehouseDistinct: 5, PadBytes: 24})
		for i, row := range hot.Rows {
			if i%5 < 3 {
				row = row.Clone()
				row[paper.Item] = storage.Int(1)
				hot.Rows[i] = row
			}
		}
		for name, steps := range map[string][]core.Step{
			"FS FS HS":    {fsItemDate, fsItemTime, hsWarehouse},
			"HS SS FS":    {hsItem, ssItemBill, fsItemDate},
			"FS SS HS HS": {fsItemDate, ssItemBill, hsItem, hsWarehouse},
		} {
			plan := &core.Plan{Scheme: "test", Steps: steps}
			m := checkPoisoned(t, hot, specs, plan, exec.Config{MemoryBytes: 8 << 10, BlockSize: 1024, HSBuckets: 4})
			for step, sm := range m.Steps {
				if sm.BlocksWritten == 0 {
					t.Fatalf("%s: step %d did not spill", name, step)
				}
			}
		}
	})

	t.Run("FS with merge passes", func(t *testing.T) {
		plan := &core.Plan{Scheme: "test", Steps: []core.Step{fsItemDate, fsItemTime}}
		m := checkPoisoned(t, table, specs, plan, exec.Config{MemoryBytes: 4 << 10, BlockSize: 1024})
		for step := range plan.Steps {
			var runs, passes int
			var inmem bool
			if detail(t, m, step, "runs=%d passes=%d inmem=%t", &runs, &passes, &inmem); passes < 2 {
				t.Fatalf("FS step %d merged %d runs in %d intermediate passes, want at least 2", step, runs, passes)
			}
		}
	})
}

// paperStatement is one of Q6–Q9 as SQL over web_sales — the row's order
// number, its pad string and every rank — with what the columns after the
// order number must read, per order number: the input's pad string and the
// reference's ranks.
type paperStatement struct {
	name, sql string
	want      map[int64][]storage.Value
}

func paperStatements(t *testing.T, table *storage.Table) []paperStatement {
	t.Helper()
	names := table.Schema.Names()
	list := func(seq attrs.Seq) string {
		cols := make([]string, len(seq))
		for i, e := range seq {
			cols[i] = names[e.Attr]
		}
		return strings.Join(cols, ", ")
	}
	var out []paperStatement
	for _, q := range []struct {
		name  string
		specs []window.Spec
	}{{"Q6", paper.Q6()}, {"Q7", paper.Q7()}, {"Q8", paper.Q8()}, {"Q9", paper.Q9()}} {
		st := paperStatement{name: q.name, want: make(map[int64][]storage.Value, table.Len())}
		for _, row := range table.Rows {
			st.want[row[datagen.ColOrderNumber].Int64()] = []storage.Value{row[datagen.ColPad]}
		}
		src := "SELECT ws_order_number, ws_pad"
		for i, spec := range q.specs {
			var over []string
			if len(spec.PKOrder) > 0 {
				over = append(over, "PARTITION BY "+list(spec.PKOrder))
			}
			if len(spec.OK) > 0 {
				over = append(over, "ORDER BY "+list(spec.OK))
			}
			src += fmt.Sprintf(", rank() OVER (%s) AS wf%d", strings.Join(over, " "), i)
			vals, err := window.Reference(table.Rows, spec)
			if err != nil {
				t.Fatal(err)
			}
			for r, v := range vals {
				tag := table.Rows[r][datagen.ColOrderNumber].Int64()
				st.want[tag] = append(st.want[tag], v)
			}
		}
		st.sql = src + " FROM web_sales"
		out = append(out, st)
	}
	return out
}

// firstValueStatement is first_value(ws_pad) over table, in paperStatement's
// shape: a derived string column, which a spilling chain reads back into
// its arena and which leaves the chain from a tail vector.
func firstValueStatement(t *testing.T, table *storage.Table) paperStatement {
	t.Helper()
	spec := window.Spec{Name: "f", Kind: window.FirstValue, Arg: datagen.ColPad, PK: attrs.MakeSet(paper.Warehouse),
		PKOrder: attrs.AscSeq(paper.Warehouse), OK: attrs.AscSeq(paper.Time, datagen.ColOrderNumber)}
	vals, err := window.Reference(table.Rows, spec)
	if err != nil {
		t.Fatal(err)
	}
	st := paperStatement{name: "first_value(ws_pad)", want: make(map[int64][]storage.Value, table.Len()),
		sql: `SELECT ws_order_number, first_value(ws_pad) OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_time_sk, ws_order_number) AS f FROM web_sales`}
	for r, v := range vals {
		st.want[table.Rows[r][datagen.ColOrderNumber].Int64()] = []storage.Value{v}
	}
	return st
}

// checkStatement drains rows, the cursor of st over table, and — once the
// cursor has closed itself at the end — holds every row it returned to the
// input and the reference.
func checkStatement(t *testing.T, table *storage.Table, st paperStatement, rows *windowdb.Rows) {
	t.Helper()
	defer rows.Close()
	var got []storage.Tuple
	for rows.Next() {
		got = append(got, rows.Row())
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("%s: %v", st.name, err)
	}
	st.verify(t, table, got)
}

// verify holds rows, what a cursor of st over table returned, to the input
// and the reference.
func (st paperStatement) verify(t *testing.T, table *storage.Table, rows []storage.Tuple) {
	t.Helper()
	for n, row := range rows {
		want, ok := st.want[row[0].Int64()]
		if !ok {
			t.Fatalf("%s: row %d reads order %q, which no input row has", st.name, n, row[0])
		}
		for k, v := range want {
			if g := row[1+k]; !storage.Identical(g, v) {
				t.Fatalf("%s: order %s column %d = %s %q, want %q", st.name, row[0], 1+k, g.Kind(), g, v)
			}
		}
	}
	if len(rows) != table.Len() {
		t.Fatalf("%s: %d rows out for %d in", st.name, len(rows), table.Len())
	}
}

// cancelAfter is a context whose Err turns to Canceled from its (left+1)-th
// call on: a statement cancelled at a chosen step boundary.
type cancelAfter struct {
	context.Context
	left int
}

func (c *cancelAfter) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

// recycledStatement is one statement of the use-after-recycle matrix: its
// text, and the check its drained cursor must pass.
type recycledStatement struct {
	name, sql string
	check     func(t *testing.T, rows *windowdb.Rows)
}

// paperChecks is Q6–Q9 over table, each held to the input and the reference
// (checkStatement).
func paperChecks(t *testing.T, table *storage.Table) []recycledStatement {
	var out []recycledStatement
	for _, st := range paperStatements(t, table) {
		out = append(out, recycledStatement{name: st.name, sql: st.sql, check: func(t *testing.T, rows *windowdb.Rows) {
			t.Helper()
			checkStatement(t, table, st, rows)
		}})
	}
	return out
}

// frameChecks is F1–F6 over table — L = 0 chains whose derived columns are
// all tail vectors, under WHERE, DISTINCT and ORDER BY … LIMIT (a TopK) —
// each held to what an engine at Parallelism 2 returns at the same budget.
// The oracle stays independent of the slabs it checks because every
// expected row is encoded into a string, and its cursor closed, before the
// matrix runs a statement. A statement with a final ORDER BY
// (on a unique key) is compared as a sequence, any other as a multiset.
func frameChecks(t *testing.T, table *storage.Table, mem, bs int) []recycledStatement {
	t.Helper()
	oracle := windowdb.New(windowdb.Config{SortMemBytes: mem, BlockSize: bs, Parallelism: 2})
	oracle.Register("web_sales", table)
	var out []recycledStatement
	for _, name := range []string{"F1", "F2", "F3", "F4", "F5", "F6"} {
		src := paper.Statements[name]
		ordered := strings.Contains(src[strings.LastIndex(src, "FROM web_sales"):], "ORDER BY")
		rows, err := oracle.QueryContext(context.Background(), src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := encodedRows(t, rows, ordered)
		if len(want) == 0 {
			t.Fatalf("%s returns no rows", name)
		}
		out = append(out, recycledStatement{name: name, sql: src, check: func(t *testing.T, rows *windowdb.Rows) {
			t.Helper()
			if got := encodedRows(t, rows, ordered); !slices.Equal(got, want) {
				t.Fatalf("%s: %d rows differ from the %d the oracle returns", name, len(got), len(want))
			}
		}})
	}
	return out
}

// encodedRows drains rows into their encodings, sorted unless ordered.
func encodedRows(t *testing.T, rows *windowdb.Rows, ordered bool) []string {
	t.Helper()
	defer rows.Close()
	var out []string
	for rows.Next() {
		out = append(out, string(storage.AppendTuple(nil, rows.Row())))
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if !ordered {
		slices.Sort(out)
	}
	return out
}

// variedPads gives every row of table one of n ws_pad strings, each as long
// as the generator's, so a string read from the wrong row shows as well as
// one read from recycled memory.
func variedPads(table *storage.Table, n int) *storage.Table {
	for i, row := range table.Rows {
		width := len(row[datagen.ColPad].Str())
		row[datagen.ColPad] = storage.StringVal(fmt.Sprintf("pad%0*d", width-3, i*7919%n))
	}
	return table
}

// stringChecks is the statements that carry ws_pad out of a chain whose
// spills read it back into the chain's arena — past a projection (Q6–Q9,
// paperChecks), a final ORDER BY on it with a LIMIT, a DISTINCT on it and a
// first_value of it — each held to what the table and the reference say.
func stringChecks(t *testing.T, table *storage.Table) []recycledStatement {
	t.Helper()
	reference := func(spec window.Spec) []storage.Value {
		vals, err := window.Reference(table.Rows, spec)
		if err != nil {
			t.Fatal(err)
		}
		return vals
	}
	encode := func(rows []storage.Tuple) []string {
		out := make([]string, len(rows))
		for i, row := range rows {
			out[i] = string(storage.AppendTuple(nil, row))
		}
		return out
	}
	expect := func(name, src string, ordered bool, want []string) recycledStatement {
		return recycledStatement{name: name, sql: src, check: func(t *testing.T, rows *windowdb.Rows) {
			t.Helper()
			if got := encodedRows(t, rows, ordered); !slices.Equal(got, want) {
				t.Fatalf("%s: %d rows differ from the %d expected", name, len(got), len(want))
			}
		}}
	}
	const limit = 700
	ranks := reference(window.Spec{Kind: window.Rank, Arg: -1, PK: attrs.MakeSet(paper.Item),
		PKOrder: attrs.AscSeq(paper.Item), OK: attrs.AscSeq(paper.Date)})
	byPad := make([]storage.Tuple, table.Len())
	for r, row := range table.Rows {
		byPad[r] = storage.Tuple{row[datagen.ColOrderNumber], row[datagen.ColPad], ranks[r]}
	}
	slices.SortFunc(byPad, func(a, b storage.Tuple) int {
		return cmp.Or(strings.Compare(b[1].Str(), a[1].Str()), cmp.Compare(a[0].Int64(), b[0].Int64()))
	})

	counts := reference(window.Spec{Kind: window.Count, Arg: -1, PK: attrs.MakeSet(datagen.ColPad)})
	seen := map[string]bool{}
	var distinct []storage.Tuple
	for r, row := range table.Rows {
		if p := row[datagen.ColPad].Str(); !seen[p] {
			seen[p] = true
			distinct = append(distinct, storage.Tuple{row[datagen.ColPad], counts[r]})
		}
	}
	distinctEnc := encode(distinct)
	slices.Sort(distinctEnc)

	fv := firstValueStatement(t, table)
	return []recycledStatement{
		expect("ORDER BY ws_pad LIMIT", fmt.Sprintf(`SELECT ws_order_number, ws_pad, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r
			FROM web_sales ORDER BY ws_pad DESC, ws_order_number LIMIT %d`, limit), true, encode(byPad[:limit])),
		expect("DISTINCT ws_pad", `SELECT DISTINCT ws_pad, count(*) OVER (PARTITION BY ws_pad) AS c FROM web_sales`, false, distinctEnc),
		{name: fv.name, sql: fv.sql, check: func(t *testing.T, rows *windowdb.Rows) {
			t.Helper()
			checkStatement(t, table, fv, rows)
		}},
	}
}

// keptPastClose drains st through q twice — a row at a time, keeping every
// Row() tuple, and a batch at a time, keeping the strings of its second
// column — lets both cursors close, runs every one of others to its end,
// and only then holds what it kept to the reference: a string still lying
// in a closed chain's arena has been recycled, poisoned and carved over by
// then.
func keptPastClose(t *testing.T, q windowdb.Queryer, table *storage.Table, st paperStatement, others []recycledStatement) {
	t.Helper()
	open := func() *windowdb.Rows {
		rows, err := q.QueryContext(context.Background(), st.sql)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		return rows
	}
	rows := open()
	var tuples []storage.Tuple
	for rows.Next() {
		tuples = append(tuples, rows.Row())
	}
	batches := open()
	var orders []int64
	var strs []string
	for b, ok := batches.NextBatch(); ok; b, ok = batches.NextBatch() {
		cols := b.Cols()
		if cols[1].Kind != storage.KindString || cols[1].Null != nil {
			t.Fatalf("%s: column 1 is a %s vector with NULLs %v, want strings", st.name, cols[1].Kind, cols[1].Null != nil)
		}
		orders = append(orders, cols[0].Ints...)
		strs = append(strs, cols[1].Strs...)
	}
	for _, r := range []*windowdb.Rows{rows, batches} {
		if err := r.Err(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		r.Close()
	}
	for _, o := range others {
		o.check(t, func() *windowdb.Rows {
			r, err := q.QueryContext(context.Background(), o.sql)
			if err != nil {
				t.Fatalf("%s: %v", o.name, err)
			}
			return r
		}())
	}
	st.verify(t, table, tuples)
	if len(strs) != table.Len() {
		t.Fatalf("%s: %d batch rows out for %d in", st.name, len(strs), table.Len())
	}
	for i, s := range strs {
		if want := st.want[orders[i]][0].Str(); s != want {
			t.Fatalf("%s: order %d kept %q out of its batch, want %q", st.name, orders[i], s, want)
		}
	}
}

// recycledMatrix opens every statement, holds its cursor open while every
// statement runs twice to its end through q — each of which hands its slabs
// back and carves the ones the previous one handed back — and checks it
// when drained last.
func recycledMatrix(t *testing.T, q windowdb.Queryer, statements []recycledStatement) {
	open := func(t *testing.T, st recycledStatement) *windowdb.Rows {
		t.Helper()
		rows, err := q.QueryContext(context.Background(), st.sql)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		return rows
	}
	for _, a := range statements {
		for _, b := range statements {
			t.Run(a.name+" open across two "+b.name, func(t *testing.T) {
				held := open(t, a)
				defer held.Close() // a failed check must not keep a service slot
				b.check(t, open(t, b))
				b.check(t, open(t, b))
				a.check(t, held)
			})
		}
	}
}

// TestRecycledMemoryIsNeverRead is the use-after-recycle matrix: with every
// recycled slab — rows, the strings a spill read back, tail vectors, header
// arrays — poisoned, Q6–Q9, F1–F6 and the statements that carry ws_pad out
// of a spilling chain (stringChecks) at the chain_spill budget run through
// engine cursors that stay open while other statements run to their end,
// and still equal the reference when drained last; so do F1–F6 in memory,
// where a Full Sort's buffer is the chain's order, and the shareable ones
// through a service, as derivation suffixes over one SharedSegment, and all
// of them through an engine at Parallelism 3, whose sub-chains are
// flattened into the statement's chain and released mid-run. The rows and
// strings a reader kept stay intact after its cursor closed and other
// statements carved its slabs (keptPastClose). A statement cancelled at
// each step boundary of its chain — WHERE's survivors carved, tails not
// yet — hands its slabs back and leaves the next statement correct.
func TestRecycledMemoryIsNeverRead(t *testing.T) {
	defer storage.PoisonRewound()()
	const bs = 1024
	table := variedPads(datagen.WebSales(datagen.WebSalesConfig{Rows: 3000, Seed: 42, PadBytes: 24}), 97)
	mem := max(int(0.85*math.Sqrt(float64(table.ByteSize()/bs)/2)), 3) * bs
	eng := windowdb.New(windowdb.Config{SortMemBytes: mem, BlockSize: bs, Parallelism: 1})
	eng.Register("web_sales", table)
	par := windowdb.New(windowdb.Config{SortMemBytes: mem, BlockSize: bs, Parallelism: 3})
	par.Register("web_sales", table)
	frames := frameChecks(t, table, mem, bs)
	strs := stringChecks(t, table)
	statements := append(append(paperChecks(t, table), frames...), strs...)
	ctx := context.Background()

	recycledMatrix(t, eng, statements)

	t.Run("in memory", func(t *testing.T) {
		inMem := windowdb.New(windowdb.Config{SortMemBytes: 256 << 20, BlockSize: bs, Parallelism: 1})
		inMem.Register("web_sales", table)
		recycledMatrix(t, inMem, frameChecks(t, table, 256<<20, bs))
	})

	t.Run("parallelism 3", func(t *testing.T) {
		recycledMatrix(t, par, statements)
	})

	t.Run("kept past close", func(t *testing.T) {
		kept := append(paperStatements(t, table), firstValueStatement(t, table))
		for _, q := range []struct {
			name string
			q    windowdb.Queryer
		}{{"parallelism 1", eng}, {"parallelism 3", par}} {
			for _, st := range kept {
				t.Run(q.name+"/"+st.name, func(t *testing.T) {
					keptPastClose(t, q.q, table, st, frames)
				})
			}
		}
	})

	t.Run("shared suffix", func(t *testing.T) {
		svc := service.New(eng, service.Config{Slots: 2})
		var shareable []recycledStatement
		for _, st := range frames {
			if st.name != "F4" && st.name != "F5" { // WHERE: their own scan keys
				shareable = append(shareable, st)
			}
		}
		recycledMatrix(t, svc, shareable)
		if sub := svc.Stats().Subplans; sub.Hits == 0 {
			t.Fatalf("no statement attached to a shared segment: %+v", sub)
		}
	})

	t.Run("cancelled mid-chain", func(t *testing.T) {
		for i, st := range statements {
			next := statements[(i+1)%len(statements)]
			recycled := 0
			for left := 0; ; left++ {
				storage.EmptyArenaPool()
				rows, err := eng.QueryContext(&cancelAfter{Context: ctx, left: left}, st.sql)
				if err == nil {
					rows.Close() // the chain ran to its end: every boundary was tried
					break
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s cancelled after %d checks: %v", st.name, left, err)
				}
				if storage.ArenaPoolLists() > 0 {
					recycled++
				}
				rows, err = eng.QueryContext(ctx, next.sql)
				if err != nil {
					t.Fatalf("%s: %v", next.name, err)
				}
				next.check(t, rows)
			}
			// F3 and the string statements are one step and no WHERE: nothing
			// is carved before their last boundary, so no cancelled run has
			// slabs to hand back.
			oneStep := st.name == "F3" || slices.ContainsFunc(strs, func(s recycledStatement) bool { return s.name == st.name })
			if recycled == 0 && !oneStep {
				t.Fatalf("%s: no cancelled run handed its slabs back", st.name)
			}
		}
	})
}
