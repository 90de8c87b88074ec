package sql

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/attrs"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/paper"
	"repro/internal/storage"
	"repro/internal/window"
)

// TestExecuteOverContext: a chain with an empty PARTITION BY composes as
// every segmented chain does — its keyless segment keyed on nothing, so the
// re-shuffle funnels every node's rows to a single site — from a plan a
// coordinator prepared against a schema-only stub.
func TestExecuteOverContext(t *testing.T) {
	ws := datagen.WebSales(datagen.WebSalesConfig{Rows: 400, Seed: 5})
	rank := func(name string, pk attrs.Set, ok int) window.Spec {
		return window.Spec{Name: name, Kind: window.Rank, Arg: -1, PK: pk, OK: attrs.AscSeq(attrs.ID(ok))}
	}
	order := []attrs.ID{datagen.ColOrderNumber}
	quantity := &gen.Pred{SQL: "ws_quantity <= 80", Keep: func(r storage.Tuple) bool { return r[datagen.ColQuantity].Int64() <= 80 }}
	for segments, s := range map[int]*gen.Statement{
		1: {Cols: order, Windows: []window.Spec{rank("r", 0, datagen.ColSoldTime)}, OrderBy: attrs.AscSeq(0), Limit: -1},
		2: {Cols: order, Windows: []window.Spec{rank("a", itemKey, datagen.ColSoldDate), rank("b", 0, datagen.ColSoldTime)},
			Where: quantity, OrderBy: attrs.Seq{{Attr: 2, Desc: true, NullsFirst: true}, {Attr: 0}}, Limit: 50},
	} {
		s.Table, s.Schema = "web_sales", ws.Schema
		if got := composeSegments(t, gen.Case{Name: "web_sales", Table: ws, Stmt: s}, itemKey, SchemeCSO, 3).Segments(); got != segments {
			t.Errorf("%d segments, want %d: %s", got, segments, s.SQL())
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
		bound, err := prep.Bind(prep.Plan())
		if err != nil {
			t.Fatalf("%s %s: %v", tc.scheme, tc.src, err)
		}
		if got := cutString(bound, prep.entry.Table().Schema); got != tc.cut {
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

// cutString renders the cut of a statement's plan as "<lead
// reorder>[lo,hi){key}" per segment.
func cutString(p *Prepared, base *storage.Schema) string {
	plan := p.Plan()
	var parts []string
	for _, seg := range p.Segments().segs {
		var cols []string
		for _, id := range seg.Key.IDs() {
			cols = append(cols, base.Columns[id].Name)
		}
		parts = append(parts, fmt.Sprintf("%s[%d,%d){%s}", plan.Steps[seg.Lo].Reorder, seg.Lo, seg.Hi, strings.Join(cols, ",")))
	}
	return strings.Join(parts, " ")
}

// TestSegmentRunnerComposesToExecute is the algebraic identity the
// cluster's one distributed route rests on: hash-partitioning the table
// across 1, 2 and 4 "nodes", running each segment of the coordinator's plan
// per node with a re-shuffle on the segment's key in between — none when
// the plan is one segment whose key covers the shard key —, concatenating
// the final segment's projected streams and finalizing at a coordinator
// gives the oracle's result — WHERE, DISTINCT, ORDER BY and LIMIT included.
// It runs the paper's statements and generated ones under CSO and PSQL
// coordinators, among them zero-round chains and a keyed → keyless → keyed
// chain.
func TestSegmentRunnerComposesToExecute(t *testing.T) {
	hit := gen.Hits{}
	shardKey := attrs.MakeSet(0)
	for _, c := range append(gen.Corpus(900), gen.Cases(100)...) {
		hit.Windows(c.Stmt)
		for _, scheme := range []Scheme{SchemeCSO, SchemePSQL} {
			for _, nodes := range []int{1, 2, 4} {
				r := composeSegments(t, c, shardKey, scheme, nodes)
				if r.Segments() == 1 && shardKey.SubsetOf(r.Key(0)) {
					hit["zero-round"]++
				}
				for seg := 1; seg < r.Segments()-1; seg++ {
					if r.Key(seg).Empty() && !r.Key(seg-1).Empty() && !r.Key(seg+1).Empty() {
						hit["keyless mid-chain"]++
						break
					}
				}
			}
		}
	}
	hit.Require(t, "zero-round", "keyless mid-chain")
}

// itemKey is the web_sales shard key the compose tests partition on.
var itemKey = attrs.MakeSet(attrs.ID(datagen.ColItem))

// composeSegments runs c's statement the way a cluster does, over nodes
// "nodes" holding the table hash-partitioned on shardKey and a coordinator
// that plans it under scheme against a schema-only stub and ships its plan:
// every node binds the plan and runs each segment of it but the last, the
// rows re-shuffling on the next segment's key after each (and first, by a
// raw stage, when the shard key does not cover segment 0's key); then every
// node streams the last segment — the whole statement over its own
// partition when no round ran — and the coordinator finalizes the
// concatenated streams. Before finalize the concatenation must be the
// oracle's projected rows as a multiset — the window values; after it, the
// oracle's result by gen's comparer. It returns node 0's runner.
func composeSegments(t *testing.T, c gen.Case, shardKey attrs.Set, scheme Scheme, nodes int) *SegmentRunner {
	t.Helper()
	ctx, table, src := context.Background(), c.Table, c.Stmt.SQL()
	cfg := exec.Config{MemoryBytes: 1 << 20}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s coordinator, %d nodes, %s: %s\n%s", c.Name, scheme, nodes, src, fmt.Sprintf(format, args...), FormatTable(table, 12))
	}
	projected, err := c.Stmt.Project(table)
	if err != nil {
		fail("oracle: %v", err)
	}
	stub := catalog.New()
	stub.RegisterStub(c.Stmt.Table, table.Schema, catalog.TableStats{
		Rows:     int64(table.Len()),
		Bytes:    int64(table.ByteSize()),
		Distinct: func(set attrs.Set) int64 { return int64(table.DistinctCount(set)) },
	})
	prep, err := (&Runner{Catalog: stub, Exec: cfg, Scheme: scheme}).Prepare(src)
	if err != nil {
		fail("%v", err)
	}

	parts := exec.PartitionRows(table.Rows, shardKey.IDs(), nodes)
	bound := make([]*Prepared, nodes)
	runners := make([]*SegmentRunner, nodes)
	for i := 0; i < nodes; i++ {
		cat := catalog.New()
		pt := storage.NewTable(table.Schema)
		pt.Rows = parts[i]
		cat.Register(c.Stmt.Table, pt)
		p, err := (&Runner{Catalog: cat, Exec: cfg}).Prepare(src)
		if err != nil {
			fail("%v", err)
		}
		if bound[i], err = p.Bind(prep.Plan()); err != nil {
			fail("node %d: %v", i, err)
		}
		runners[i] = bound[i].Segments()
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
	// in[i] is node i's input to its next stage: its own partition until a
	// round delivers it an inbox.
	in := make([]Input, nodes)
	// round runs segment seg (-1: the raw stage, WHERE only) on every node
	// and re-shuffles the output onto the next segment's key, exactly as the
	// nodes would exchange it over the wire.
	round := func(seg int) {
		next := make([]*storage.Table, nodes)
		for i := range next {
			next[i] = storage.NewTable(runners[0].InputSchema(seg + 1))
		}
		for i := 0; i < nodes; i++ {
			out := in[i].Rows
			if out == nil {
				if out, err = runners[i].FilterBase(ctx); err != nil {
					fail("%v", err)
				}
			}
			if seg >= 0 {
				// The chain goes to the GC with the table: a spilled
				// string in it may be the chain arena's.
				chain, m, err := runners[i].Run(ctx, seg, out)
				if err != nil {
					fail("node %d segment %d: %v", i, seg, err)
				}
				verbatim(i, seg, m)
				out = chainTable(chain)
			}
			for p, rows := range exec.PartitionRows(out.Rows, runners[0].Key(seg+1).IDs(), nodes) {
				next[p].Rows = append(next[p].Rows, rows...)
			}
		}
		for i := range in {
			in[i] = Input{Rows: next[i]}
		}
	}
	last := runners[0].Segments() - 1
	if !prep.ShardLocal(shardKey) {
		if !shardKey.SubsetOf(runners[0].Key(0)) {
			round(-1)
		}
		for seg := 0; seg < last; seg++ {
			round(seg)
		}
	}
	concat := storage.NewTable(storage.NewSchema(prep.outCols...))
	for i := 0; i < nodes; i++ {
		cur, err := bound[i].Open(ctx, in[i], true)
		if err != nil {
			fail("node %d final segment: %v", i, err)
		}
		if last >= 0 {
			verbatim(i, last, cur.Meta().Exec)
		}
		concat.Rows = append(concat.Rows, drainCursor(t, cur)...)
	}
	if err := gen.SameMultiset(concat.Rows, projected); err != nil {
		fail("the distributed chain's rows are not the oracle's: %v", err)
	}
	got, err := openResult(ctx, prep, Input{Concat: concat}, false)
	if err != nil {
		fail("%v", err)
	}
	if err := c.Stmt.Check(got.Table.Rows, projected); err != nil {
		fail("finalized: %v", err)
	}
	return runners[0]
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
		// An empty PARTITION BY keys its segment on nothing, and disjoint
		// keys cut the chain in two: neither runs shard-locally.
		{`SELECT rank() OVER (ORDER BY ws_sold_time_sk) AS r FROM web_sales`, item, false},
		{`SELECT rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a,
		  rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_date_sk) AS b FROM web_sales`, item, false},
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
