package sql

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/attrs"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/exec"
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
// every segmented chain does — one segment, keyed on nothing, so the
// re-shuffle funnels every node's rows to a single site — from a plan a
// coordinator prepared against a schema-only stub.
func TestExecuteOverContext(t *testing.T) {
	ws := datagen.WebSales(datagen.WebSalesConfig{Rows: 400, Seed: 5})
	for _, src := range []string{
		`SELECT ws_order_number, rank() OVER (ORDER BY ws_sold_time_sk) AS r FROM web_sales ORDER BY ws_order_number`,
		`SELECT ws_order_number, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a,
		 rank() OVER (ORDER BY ws_sold_time_sk) AS b FROM web_sales WHERE ws_quantity <= 80 ORDER BY b DESC, ws_order_number LIMIT 50`,
	} {
		composeSegments(t, ws, src, 1)
	}
}

// TestSegmentPlan pins the per-segment routing predicate: key-divergent
// chains with non-empty per-segment keys split, common-key chains collapse
// to one segment, and an empty PARTITION BY anywhere makes the whole chain
// one keyless segment — the single-site plan.
func TestSegmentPlan(t *testing.T) {
	ws := datagen.WebSales(datagen.WebSalesConfig{Rows: 300, Seed: 2})
	cat := catalog.New()
	cat.Register("web_sales", ws)
	r := Runner{Catalog: cat, Exec: exec.Config{MemoryBytes: 1 << 20}}
	cases := []struct {
		src      string
		segments int // 0 = no segment plan
	}{
		// Disjoint WPKs: one segment per key.
		{`SELECT rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a,
		  rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_date_sk) AS b FROM web_sales`, 2},
		{`SELECT rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a,
		  rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_date_sk) AS b,
		  rank() OVER (PARTITION BY ws_bill_customer_sk ORDER BY ws_sold_date_sk) AS c FROM web_sales`, 3},
		// A shared key keeps the chain in one segment.
		{`SELECT rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a,
		  rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_bill_customer_sk) AS b FROM web_sales`, 1},
		// An empty PARTITION BY leaves no key to split on: one site.
		{`SELECT rank() OVER (ORDER BY ws_sold_time_sk) AS a,
		  rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS b FROM web_sales`, 1},
		{`SELECT rank() OVER (ORDER BY ws_sold_time_sk) AS a FROM web_sales`, 1},
		// Window-less statements have no chain to segment.
		{`SELECT ws_item_sk FROM web_sales`, 0},
	}
	for _, tc := range cases {
		prep, err := r.Prepare(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		sp := prep.SegmentPlan()
		got := 0
		if sp != nil {
			got = sp.Segments()
		}
		if got != tc.segments {
			t.Errorf("SegmentPlan(%q) = %d segments, want %d", tc.src, got, tc.segments)
		}
		if sp == nil {
			continue
		}
		// The order is a permutation, and only a plan of one segment may
		// leave its key empty.
		seen := map[int]bool{}
		for _, id := range sp.Order {
			if seen[id] {
				t.Fatalf("wf %d appears twice in %v", id, sp.Order)
			}
			seen[id] = true
		}
		for i, key := range sp.Keys {
			if len(key) == 0 && sp.Segments() > 1 {
				t.Fatalf("segment %d of %q has an empty key", i, tc.src)
			}
		}
		// Every node accepts the plan — except with a key blanked where other
		// segments remain, which is a coordination fault.
		if _, err := prep.Segments(sp); err != nil {
			t.Fatalf("Segments(%+v): %v", sp, err)
		}
		if sp.Segments() > 1 {
			bad := *sp
			bad.Keys = append([][]int{{}}, sp.Keys[1:]...)
			if _, err := prep.Segments(&bad); err == nil || !strings.Contains(err.Error(), "no shuffle key") {
				t.Fatalf("Segments(%+v) = %v, want a keyless-segment fault", bad, err)
			}
		}
	}
}

// TestSegmentRunnerComposesToExecute is the algebraic identity the
// cluster's shuffle route rests on: hash-partitioning the table across N
// "nodes", running each segment per node with a re-shuffle on the
// segment's key in between, concatenating the final segment's projected
// streams and finalizing at a coordinator reproduces ExecuteContext
// exactly — WHERE, DISTINCT, ORDER BY and LIMIT included.
func TestSegmentRunnerComposesToExecute(t *testing.T) {
	ws := datagen.WebSales(datagen.WebSalesConfig{Rows: 900, Seed: 4})
	composeSegments(t, ws, `SELECT ws_order_number, ws_warehouse_sk,
	 rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a,
	 rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_date_sk) AS b
	 FROM web_sales WHERE ws_quantity <= 80 ORDER BY ws_order_number, b LIMIT 300`, 2)
}

// composeSegments runs src the way the cluster's shuffle route does, over
// three "nodes" holding ws hash-partitioned on ws_item_sk and a coordinator
// holding a schema-only stub, and requires the single engine's result and a
// plan of the given segment count.
func composeSegments(t *testing.T, ws *storage.Table, src string, segments int) {
	t.Helper()
	full := catalog.New()
	full.Register("web_sales", ws)
	want, err := (&Runner{Catalog: full, Exec: exec.Config{MemoryBytes: 1 << 20}}).Query(src)
	if err != nil {
		t.Fatal(err)
	}
	stub := catalog.New()
	stub.RegisterStub("web_sales", ws.Schema, catalog.TableStats{
		Rows:  int64(ws.Len()),
		Bytes: int64(ws.ByteSize()),
		Distinct: func(set attrs.Set) int64 {
			return int64(ws.DistinctCount(set))
		},
	})
	prep, err := (&Runner{Catalog: stub, Exec: exec.Config{MemoryBytes: 1 << 20}}).Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	sp := prep.SegmentPlan()
	if sp == nil || sp.Segments() != segments {
		t.Fatalf("want a %d-segment plan, got %+v", segments, sp)
	}

	const nodes = 3
	shardKey := attrs.MakeSet(attrs.ID(datagen.ColItem))
	parts := exec.PartitionRows(ws.Rows, shardKey.IDs(), nodes)
	runners := make([]*SegmentRunner, nodes)
	cur := make([]*storage.Table, nodes)
	for i := 0; i < nodes; i++ {
		cat := catalog.New()
		pt := storage.NewTable(ws.Schema)
		pt.Rows = parts[i]
		cat.Register("web_sales", pt)
		r := Runner{Catalog: cat, Exec: exec.Config{MemoryBytes: 1 << 20}}
		p, err := r.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		if runners[i], err = p.Segments(sp); err != nil {
			t.Fatal(err)
		}
		if cur[i], err = runners[i].FilterBase(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	// reshuffle redistributes every node's current rows on key, exactly as
	// the nodes would exchange them over the wire.
	reshuffle := func(key []int, schema *storage.Schema) {
		ids := make([]attrs.ID, len(key))
		for i, c := range key {
			ids[i] = attrs.ID(c)
		}
		next := make([]*storage.Table, nodes)
		for i := range next {
			next[i] = storage.NewTable(schema)
		}
		for _, t := range cur {
			for p, rows := range exec.PartitionRows(t.Rows, ids, nodes) {
				next[p].Rows = append(next[p].Rows, rows...)
			}
		}
		cur = next
	}

	// Run every segment with a re-shuffle on its key first (always legal;
	// the cluster skips the first one when the shard key already covers
	// segment 0's key).
	for seg := 0; seg < sp.Segments()-1; seg++ {
		reshuffle(sp.Keys[seg], runners[0].InputSchema(seg))
		for i := 0; i < nodes; i++ {
			out, _, err := runners[i].Run(context.Background(), seg, cur[i])
			if err != nil {
				t.Fatal(err)
			}
			cur[i] = out
		}
	}
	last := sp.Segments() - 1
	reshuffle(sp.Keys[last], runners[0].InputSchema(last))
	var concat *storage.Table
	for i := 0; i < nodes; i++ {
		c, err := runners[i].StreamFinal(context.Background(), cur[i])
		if err != nil {
			t.Fatal(err)
		}
		if concat == nil {
			concat = storage.NewTable(storage.NewSchema(c.Columns()...))
		}
		concat.Rows = append(concat.Rows, drainCursor(t, c)...)
	}
	got, err := openResult(context.Background(), prep, Input{Concat: concat}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table.Len() != want.Table.Len() {
		t.Fatalf("rows %d, want %d", got.Table.Len(), want.Table.Len())
	}
	for i := range want.Table.Rows {
		a := storage.AppendTuple(nil, got.Table.Rows[i])
		b := storage.AppendTuple(nil, want.Table.Rows[i])
		if !slices.Equal(a, b) {
			t.Fatalf("row %d differs after segment composition", i)
		}
	}
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
