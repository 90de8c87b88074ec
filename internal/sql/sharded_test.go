package sql

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/attrs"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/paper"
	"repro/internal/storage"
)

// TestShardPhasesComposeToExecute: manually hash-partitioning the table,
// running the shard-local part per partition, concatenating and finalizing
// must reproduce ExecuteContext exactly — the algebraic identity the
// cluster's scatter path rests on.
func TestShardPhasesComposeToExecute(t *testing.T) {
	ws := datagen.WebSales(datagen.WebSalesConfig{Rows: 700, Seed: 3})
	src := `SELECT ws_item_sk, ws_order_number,
	 rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r
	 FROM web_sales WHERE ws_quantity <= 70 ORDER BY ws_item_sk, ws_order_number LIMIT 200`
	key := attrs.MakeSet(attrs.ID(datagen.ColItem))

	full := catalog.New()
	full.Register("web_sales", ws)
	runner := Runner{Catalog: full, Exec: exec.Config{MemoryBytes: 1 << 20}}
	prep, err := runner.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	if !prep.ShardLocal(key) {
		t.Fatal("statement should be shard-local on the item key")
	}
	want, err := prep.ExecuteContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	const shards = 3
	parts := exec.PartitionRows(ws.Rows, key.IDs(), shards)
	var concat *storage.Table
	for i := 0; i < shards; i++ {
		cat := catalog.New()
		pt := storage.NewTable(ws.Schema)
		pt.Rows = parts[i]
		cat.Register("web_sales", pt)
		r := Runner{Catalog: cat, Exec: exec.Config{MemoryBytes: 1 << 20}}
		p, err := r.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := openResult(context.Background(), p, Input{}, true)
		if err != nil {
			t.Fatal(err)
		}
		if concat == nil {
			concat = storage.NewTable(res.Table.Schema)
		}
		concat.Rows = append(concat.Rows, res.Table.Rows...)
	}
	got, err := openResult(context.Background(), prep, Input{Concat: concat}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.FinalSort != "full" {
		t.Fatalf("finalize sort %q, want full", got.FinalSort)
	}
	if got.Table.Len() != want.Table.Len() {
		t.Fatalf("row count %d, want %d", got.Table.Len(), want.Table.Len())
	}
	for i := range want.Table.Rows {
		a := storage.AppendTuple(nil, got.Table.Rows[i])
		b := storage.AppendTuple(nil, want.Table.Rows[i])
		if !slices.Equal(a, b) {
			t.Fatalf("row %d differs after scatter composition", i)
		}
	}
}

// TestExecuteOverContext: a chain with an empty PARTITION BY composes as
// every segmented chain does — its keyless segment keyed on nothing, so the
// re-shuffle funnels every node's rows to a single site — from a plan a
// coordinator prepared against a schema-only stub.
func TestExecuteOverContext(t *testing.T) {
	ws := datagen.WebSales(datagen.WebSalesConfig{Rows: 400, Seed: 5})
	for src, segments := range map[string]int{
		`SELECT ws_order_number, rank() OVER (ORDER BY ws_sold_time_sk) AS r FROM web_sales ORDER BY ws_order_number`: 1,
		`SELECT ws_order_number, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a,
		 rank() OVER (ORDER BY ws_sold_time_sk) AS b FROM web_sales WHERE ws_quantity <= 80 ORDER BY b DESC, ws_order_number LIMIT 50`: 2,
	} {
		if got := composeSegments(t, ws, itemKey, src, SchemeCSO).Segments(); got != segments {
			t.Errorf("%d segments, want %d: %s", got, segments, src)
		}
	}
}

// TestSegmentPlan pins the one cut, exec.Segments, as a node applies it to
// a coordinator's plan: key-divergent chains split on every key, a shared
// key keeps the chain in one segment, a PARTITION-BY-less function is a
// segment keyed on nothing wherever it sits — and the paper's Q1–Q9 and
// F1–F6 under CSO and PSQL cut exactly as the table says.
func TestSegmentPlan(t *testing.T) {
	r := leanRunner(2000, 64<<10)
	type cutCase struct {
		scheme   Scheme
		src, cut string // cut "" = no chain to cut
	}
	cases := []cutCase{
		// Disjoint WPKs: one segment per key.
		{SchemeCSO, `SELECT rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a,
		  rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_date_sk) AS b FROM web_sales`, "HS[0,1){ws_item_sk} HS[1,2){ws_warehouse_sk}"},
		{SchemeCSO, `SELECT rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a,
		  rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_date_sk) AS b,
		  rank() OVER (PARTITION BY ws_bill_customer_sk ORDER BY ws_sold_date_sk) AS c FROM web_sales`, "HS[0,1){ws_item_sk} HS[1,2){ws_bill_customer_sk} HS[2,3){ws_warehouse_sk}"},
		// A shared key keeps the chain in one segment.
		{SchemeCSO, `SELECT rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a,
		  rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_bill_customer_sk) AS b FROM web_sales`, "HS[0,2){ws_item_sk}"},
		// An empty PARTITION BY is a segment of its own, keyed on nothing.
		{SchemeCSO, `SELECT rank() OVER (ORDER BY ws_sold_time_sk) AS a,
		  rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS b FROM web_sales`, "FS[0,1){} HS[1,2){ws_item_sk}"},
		{SchemeCSO, `SELECT rank() OVER (ORDER BY ws_sold_time_sk) AS a FROM web_sales`, "FS[0,1){}"},
		// Window-less statements have no chain to cut.
		{SchemeCSO, `SELECT ws_item_sk FROM web_sales`, ""},
	}
	for _, name := range slices.Sorted(maps.Keys(paper.Statements)) {
		for _, scheme := range []Scheme{SchemeCSO, SchemePSQL} {
			cases = append(cases, cutCase{scheme, paper.Statements[name], paperCuts[string(scheme)+" "+name]})
		}
	}
	for _, tc := range cases {
		runner := *r
		runner.Scheme = tc.scheme
		prep, err := runner.Prepare(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		seg, err := prep.Segments(prep.Plan())
		if tc.cut == "" {
			if err == nil {
				t.Errorf("%s: a window-less statement has no segments to run", tc.src)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s %s: %v", tc.scheme, tc.src, err)
		}
		if got := cutString(prep.Plan(), seg, prep.entry.Table().Schema); got != tc.cut {
			t.Errorf("%s %s: cut %q, want %q", tc.scheme, tc.src, got, tc.cut)
		}
	}
}

// paperCuts is exec.Segments' cut of each paper statement's plan, by scheme
// and name, at leanRunner(2000, 64 KB).
var paperCuts = map[string]string{
	"CSO F1":  "HS[0,2){ws_item_sk}",
	"PSQL F1": "FS[0,2){ws_item_sk}",
	"CSO F2":  "HS[0,2){ws_item_sk}",
	"PSQL F2": "FS[0,2){ws_item_sk}",
	"CSO F3":  "HS[0,1){ws_item_sk}",
	"PSQL F3": "FS[0,1){ws_item_sk}",
	"CSO F4":  "HS[0,2){ws_bill_customer_sk}",
	"PSQL F4": "FS[0,2){ws_bill_customer_sk}",
	"CSO F5":  "HS[0,3){ws_warehouse_sk}",
	"PSQL F5": "FS[0,3){ws_warehouse_sk}",
	"CSO F6":  "HS[0,2){ws_item_sk}",
	"PSQL F6": "FS[0,2){ws_item_sk}",
	"CSO Q1":  "HS[0,1){ws_item_sk}",
	"PSQL Q1": "FS[0,1){ws_item_sk}",
	"CSO Q2":  "HS[0,1){ws_item_sk,ws_bill_customer_sk}",
	"PSQL Q2": "FS[0,1){ws_item_sk,ws_bill_customer_sk}",
	"CSO Q3":  "HS[0,1){ws_warehouse_sk}",
	"PSQL Q3": "FS[0,1){ws_warehouse_sk}",
	"CSO Q4":  "HS[0,1){ws_quantity}",
	"PSQL Q4": "FS[0,1){ws_quantity}",
	"CSO Q5":  "HS[0,1){ws_quantity}",
	"PSQL Q5": "FS[0,1){ws_quantity}",
	"CSO Q6":  "HS[0,2){ws_item_sk}",
	"PSQL Q6": "FS[0,2){ws_item_sk}",
	"CSO Q7":  "FS[0,3){} HS[3,5){ws_sold_date_sk,ws_sold_time_sk}",
	"PSQL Q7": "FS[0,2){ws_sold_date_sk,ws_sold_time_sk} FS[2,3){ws_item_sk} FS[3,4){} FS[4,5){ws_sold_date_sk,ws_sold_time_sk,ws_item_sk,ws_bill_customer_sk}",
	"CSO Q8":  "HS[0,3){ws_sold_date_sk,ws_sold_time_sk} HS[3,5){ws_item_sk}",
	"PSQL Q8": "FS[0,2){ws_sold_date_sk,ws_sold_time_sk} FS[2,5){ws_item_sk}",
	"CSO Q9":  "FS[0,6){} HS[6,8){ws_bill_customer_sk}",
	"PSQL Q9": "FS[0,3){ws_item_sk} FS[3,4){} FS[4,6){ws_bill_customer_sk} FS[6,7){ws_sold_date_sk,ws_sold_time_sk} FS[7,8){}",
}

// cutString renders a runner's cut of plan as "<lead reorder>[lo,hi){key}"
// per segment.
func cutString(plan *core.Plan, r *SegmentRunner, base *storage.Schema) string {
	var parts []string
	for _, seg := range r.segs {
		var cols []string
		for _, id := range seg.Key.IDs() {
			cols = append(cols, base.Columns[id].Name)
		}
		parts = append(parts, fmt.Sprintf("%s[%d,%d){%s}", plan.Steps[seg.Lo].Reorder, seg.Lo, seg.Hi, strings.Join(cols, ",")))
	}
	return strings.Join(parts, " ")
}

// TestSegmentRunnerComposesToExecute is the algebraic identity the
// cluster's shuffle route rests on: hash-partitioning the table across N
// "nodes", running each segment of the coordinator's plan per node with a
// re-shuffle on the segment's key in between, concatenating the final
// segment's projected streams and finalizing at a coordinator reproduces
// the single engine — WHERE, DISTINCT, ORDER BY and LIMIT included. It
// covers a key-divergent chain, the paper's Q7–Q9 (Q7 and Q9 with
// PARTITION-BY-less functions) under CSO and PSQL coordinators, and
// finalize's generated statements, among them a keyed → keyless → keyed
// chain.
func TestSegmentRunnerComposesToExecute(t *testing.T) {
	ws := datagen.WebSales(datagen.WebSalesConfig{Rows: 900, Seed: 4})
	if got := composeSegments(t, ws, itemKey, `SELECT ws_order_number, ws_warehouse_sk,
	 rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a,
	 rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_date_sk) AS b
	 FROM web_sales WHERE ws_quantity <= 80 ORDER BY ws_order_number, b LIMIT 300`, SchemeCSO).Segments(); got != 2 {
		t.Errorf("%d segments, want 2", got)
	}
	for _, name := range []string{"Q7", "Q8", "Q9"} {
		for _, scheme := range []Scheme{SchemeCSO, SchemePSQL} {
			composeSegments(t, ws, itemKey, paper.Statements[name], scheme)
		}
	}

	shapes := append(slices.Clone(finalizeShapes), finalizeShape{
		[]string{`rank() OVER (PARTITION BY g ORDER BY u) AS w1`, `row_number() OVER (ORDER BY h, u) AS w2`,
			`dense_rank() OVER (PARTITION BY s ORDER BY h DESC NULLS FIRST) AS w3`},
		[][]string{{"g", "u"}, {"h", "u"}, {"s"}},
	})
	seeds := 60
	if *long {
		seeds = 1000
	}
	shardKey := attrs.MakeSet(0) // g
	keylessMidChain := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		table := finalizeTable(rng)
		shape := shapes[len(shapes)-1]
		if seed%2 == 0 {
			shape = shapes[rng.Intn(len(shapes))]
		}
		stmt := finalizeStatementOf(rng, table.Len(), shape)
		for _, scheme := range []Scheme{SchemeCSO, SchemePSQL} {
			r := composeSegments(t, table, shardKey, stmt, scheme)
			for seg := 1; r != nil && seg < r.Segments()-1; seg++ {
				if r.Key(seg).Empty() && !r.Key(seg-1).Empty() && !r.Key(seg+1).Empty() {
					keylessMidChain++
					break
				}
			}
		}
	}
	if keylessMidChain == 0 {
		t.Error("no generated chain cut keyed → keyless → keyed")
	}
}

// itemKey is the web_sales shard key the compose tests partition on.
var itemKey = attrs.MakeSet(attrs.ID(datagen.ColItem))

// composeSegments runs src the way the cluster's shuffle route does, over
// three "nodes" holding table hash-partitioned on shardKey and a
// coordinator that plans src under scheme against a schema-only stub and
// ships its plan: every node runs each segment of it, the rows re-shuffle on
// the next segment's key in between (the first re-shuffle skipped when the
// shard key covers segment 0's key), and the coordinator finalizes the
// concatenated final streams. Before finalize the concatenation must be the
// single engine's shard-local rows as a multiset — the window values; after
// it, the single engine's result as a sequence where the ORDER BY is total
// over it, as a multiset where there is no LIMIT to pick among ties, and by
// its row count otherwise. The table is registered under the name src
// reads. It returns node 0's runner, or nil for a window-less src, which
// it skips.
func composeSegments(t *testing.T, table *storage.Table, shardKey attrs.Set, src string, scheme Scheme) *SegmentRunner {
	t.Helper()
	ctx := context.Background()
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := exec.Config{MemoryBytes: 1 << 20}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s coordinator, %s: %s\n%s", scheme, src, fmt.Sprintf(format, args...), FormatTable(table, 12))
	}
	full := catalog.New()
	full.Register(q.Table, table)
	single, err := (&Runner{Catalog: full, Exec: cfg}).Prepare(src)
	if err != nil {
		fail("%v", err)
	}
	if single.Plan() == nil {
		return nil
	}
	local, err := openResult(ctx, single, Input{}, true)
	if err != nil {
		fail("%v", err)
	}
	want, err := openResult(ctx, single, Input{}, false)
	if err != nil {
		fail("%v", err)
	}
	stub := catalog.New()
	stub.RegisterStub(q.Table, table.Schema, catalog.TableStats{
		Rows:     int64(table.Len()),
		Bytes:    int64(table.ByteSize()),
		Distinct: func(set attrs.Set) int64 { return int64(table.DistinctCount(set)) },
	})
	prep, err := (&Runner{Catalog: stub, Exec: cfg, Scheme: scheme}).Prepare(src)
	if err != nil {
		fail("%v", err)
	}

	const nodes = 3
	parts := exec.PartitionRows(table.Rows, shardKey.IDs(), nodes)
	runners := make([]*SegmentRunner, nodes)
	cur := make([]*storage.Table, nodes)
	for i := 0; i < nodes; i++ {
		cat := catalog.New()
		pt := storage.NewTable(table.Schema)
		pt.Rows = parts[i]
		cat.Register(q.Table, pt)
		p, err := (&Runner{Catalog: cat, Exec: cfg}).Prepare(src)
		if err != nil {
			fail("%v", err)
		}
		if runners[i], err = p.Segments(prep.Plan()); err != nil {
			fail("node %d: %v", i, err)
		}
		if cur[i], err = runners[i].FilterBase(ctx); err != nil {
			fail("%v", err)
		}
	}

	// reshuffle redistributes every node's current rows onto segment seg's
	// key, exactly as the nodes would exchange them over the wire.
	reshuffle := func(seg int) {
		if seg == 0 && shardKey.SubsetOf(runners[0].Key(0)) {
			return
		}
		next := make([]*storage.Table, nodes)
		for i := range next {
			next[i] = storage.NewTable(runners[0].InputSchema(seg))
		}
		for _, t := range cur {
			for p, rows := range exec.PartitionRows(t.Rows, runners[0].Key(seg).IDs(), nodes) {
				next[p].Rows = append(next[p].Rows, rows...)
			}
		}
		cur = next
	}
	// verbatim requires a node's steps to be the coordinator's, reorder for
	// reorder.
	verbatim := func(node, seg int, m *exec.Metrics) {
		planned := prep.Plan().Steps[runners[node].segs[seg].Lo:]
		for k, st := range m.Steps {
			if st.WFID != planned[k].WF.ID || st.Reorder != planned[k].Reorder {
				fail("node %d ran wf%d %s where the coordinator planned wf%d %s", node, st.WFID, st.Reorder, planned[k].WF.ID, planned[k].Reorder)
			}
		}
	}
	last := runners[0].Segments() - 1
	for seg := 0; seg < last; seg++ {
		reshuffle(seg)
		for i := 0; i < nodes; i++ {
			out, m, err := runners[i].Run(ctx, seg, cur[i])
			if err != nil {
				fail("node %d segment %d: %v", i, seg, err)
			}
			verbatim(i, seg, m)
			cur[i] = out
		}
	}
	reshuffle(last)
	concat := storage.NewTable(storage.NewSchema(single.outCols...))
	for i := 0; i < nodes; i++ {
		c, err := runners[i].StreamFinal(ctx, cur[i])
		if err != nil {
			fail("node %d final segment: %v", i, err)
		}
		verbatim(i, last, c.Meta().Metrics)
		concat.Rows = append(concat.Rows, drainCursor(t, c)...)
	}
	if !slices.Equal(multiset(concat.Rows), multiset(local.Table.Rows)) {
		fail("the shuffled chain's rows are not the single engine's")
	}
	got, err := openResult(ctx, prep, Input{Concat: concat}, false)
	if err != nil {
		fail("%v", err)
	}
	switch {
	case totalOver(local.Table.Rows, single):
		if !slices.Equal(sequence(got.Table.Rows), sequence(want.Table.Rows)) {
			fail("finalized rows differ from the single engine's sequence")
		}
	case single.q.Limit < 0:
		if !slices.Equal(multiset(got.Table.Rows), multiset(want.Table.Rows)) {
			fail("finalized rows differ from the single engine's multiset")
		}
	case got.Table.Len() != want.Table.Len():
		fail("%d finalized rows, the single engine has %d", got.Table.Len(), want.Table.Len())
	}
	return runners[0]
}

// sequence encodes rows one string each, the two float zeros as one value
// (DISTINCT keeps whichever comes first).
func sequence(rows []storage.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var b []byte
		for _, v := range r {
			if v.Kind() == storage.KindFloat && v.Float64() == 0 {
				v = storage.Float(0)
			}
			b = storage.AppendTuple(b, storage.Tuple{v})
		}
		out[i] = string(b)
	}
	return out
}

// multiset is sequence sorted.
func multiset(rows []storage.Tuple) []string { return slices.Sorted(slices.Values(sequence(rows))) }

// totalOver reports whether p's ORDER BY leaves no choice over its
// projected rows: after DISTINCT, rows that tie on the key are the same row.
func totalOver(rows []storage.Tuple, p *Prepared) bool {
	if len(p.orderKey) == 0 {
		return false
	}
	sorted := finalizeOracle(rows, p.q.Distinct, p.orderKey, -1)
	enc := sequence(sorted)
	for i := 1; i < len(sorted); i++ {
		if storage.CompareSeq(sorted[i-1], sorted[i], p.orderKey) == 0 && enc[i-1] != enc[i] {
			return false
		}
	}
	return true
}

// TestShardLocalPredicate pins the routing rule on crafted chains.
func TestShardLocalPredicate(t *testing.T) {
	ws := datagen.WebSales(datagen.WebSalesConfig{Rows: 50, Seed: 1})
	cat := catalog.New()
	cat.Register("web_sales", ws)
	r := Runner{Catalog: cat, Exec: exec.Config{MemoryBytes: 1 << 20}}
	item := attrs.MakeSet(attrs.ID(datagen.ColItem))
	itemBill := attrs.MakeSet(attrs.ID(datagen.ColItem), attrs.ID(datagen.ColBill))
	cases := []struct {
		src  string
		key  attrs.Set
		want bool
	}{
		// Chain common key {item,bill} covers both {item} and {item,bill}.
		{`SELECT rank() OVER (PARTITION BY ws_item_sk, ws_bill_customer_sk ORDER BY ws_quantity) AS r FROM web_sales`, item, true},
		{`SELECT rank() OVER (PARTITION BY ws_item_sk, ws_bill_customer_sk ORDER BY ws_quantity) AS r FROM web_sales`, itemBill, true},
		// Shard key {item,bill} is not contained in WPK {item}: one
		// item-partition spans shards (its rows hash by bill too), so the
		// chain cannot run shard-locally.
		{`SELECT rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_quantity) AS r FROM web_sales`, itemBill, false},
		// Empty shard key never routes shard-local.
		{`SELECT ws_item_sk FROM web_sales`, 0, false},
		// Window-less statements distribute trivially.
		{`SELECT ws_item_sk FROM web_sales`, item, true},
	}
	for _, tc := range cases {
		prep, err := r.Prepare(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		if got := prep.ShardLocal(tc.key); got != tc.want {
			t.Errorf("ShardLocal(%q, %v) = %v, want %v", tc.src, tc.key, got, tc.want)
		}
	}
}
