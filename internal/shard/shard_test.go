package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/attrs"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/paper"
	"repro/internal/service"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/trace"
)

// q6SQL is the Q6 chain (Table 3) as SQL: both functions share
// WPK {ws_item_sk}, so a table sharded on ws_item_sk executes it
// shard-locally.
const q6SQL = `SELECT ws_item_sk, ws_sold_date_sk, ws_bill_customer_sk, ws_order_number,
 rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS wf1,
 rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_bill_customer_sk) AS wf2
 FROM web_sales`

// keylessSQL has an empty common partition key (wf1's WPK is empty), so it
// cannot run shard-locally — and with no usable per-segment key either, it
// shuffles as one segment keyed on nothing: every row to the same node.
const keylessSQL = `SELECT ws_item_sk, ws_order_number,
 rank() OVER (ORDER BY ws_sold_time_sk) AS r
 FROM web_sales`

// divergeSQL has two non-empty but disjoint WPKs — exec.Segments cuts it in
// two, so the chain cannot scatter whole; each segment keeps a usable key,
// so it executes per segment with a node-to-node re-shuffle at the
// divergence point (route "shuffle").
const divergeSQL = `SELECT ws_order_number,
 rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a,
 rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_date_sk) AS b
 FROM web_sales`

// diverge3SQL spans three key-divergent segments (item, warehouse, bill):
// two re-shuffles between nodes before the final merge.
const diverge3SQL = `SELECT ws_order_number,
 rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a,
 rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_date_sk) AS b,
 rank() OVER (PARTITION BY ws_bill_customer_sk ORDER BY ws_sold_date_sk) AS c
 FROM web_sales`

func testEngineConfig() windowdb.Config {
	return windowdb.Config{SortMemBytes: 1 << 20, Parallelism: 1}
}

// newLocalCluster builds an n-shard in-process cluster with web_sales
// sharded on ws_item_sk and emptab replicated.
func newLocalCluster(t *testing.T, n int, rows int) *Cluster {
	t.Helper()
	c, _ := localCluster(t, n, rows, service.Config{})
	return c
}

// localCluster is newLocalCluster over nodes served with the given config,
// returning the node services too.
func localCluster(t testing.TB, n int, rows int, node service.Config) (*Cluster, []*service.Service) {
	t.Helper()
	svcs := make([]*service.Service, n)
	shards := make([]Transport, n)
	for i := range shards {
		svcs[i] = service.New(windowdb.New(testEngineConfig()), node)
		shards[i] = NewLocal(svcs[i])
	}
	c, err := New(Config{Engine: testEngineConfig()}, shards)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ws := datagen.WebSales(datagen.WebSalesConfig{Rows: rows, Seed: 7})
	if err := c.RegisterSharded(ctx, "web_sales", ws, "ws_item_sk"); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterReplicated(ctx, "emptab", datagen.Emptab()); err != nil {
		t.Fatal(err)
	}
	return c, svcs
}

// singleEngine builds the single-engine reference over the same data.
func singleEngine(rows int) *windowdb.Engine {
	eng := windowdb.New(testEngineConfig())
	eng.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: rows, Seed: 7}))
	eng.Register("emptab", datagen.Emptab())
	return eng
}

// canonical is an order-insensitive fingerprint of a table.
func canonical(t *storage.Table) []string {
	out := make([]string, t.Len())
	for i, r := range t.Rows {
		out[i] = string(storage.AppendTuple(nil, r))
	}
	slices.Sort(out)
	return out
}

func ordered(t *storage.Table) []string {
	out := make([]string, t.Len())
	for i, r := range t.Rows {
		out[i] = string(storage.AppendTuple(nil, r))
	}
	return out
}

// TestScatterEquivalence is the acceptance bar: sharded Q6 over 1, 2 and 4
// in-process shards is value-identical to the single-engine result.
func TestScatterEquivalence(t *testing.T) {
	const rows = 2500
	ref, err := singleEngine(rows).Query(q6SQL)
	if err != nil {
		t.Fatal(err)
	}
	want := canonical(ref.Table)
	for _, n := range []int{1, 2, 4} {
		c := newLocalCluster(t, n, rows)
		res, err := windowdb.Collect(context.Background(), c, q6SQL)
		if err != nil {
			t.Fatalf("%d shards: %v", n, err)
		}
		if res.Route != "scatter" {
			t.Fatalf("%d shards: route %q, want scatter", n, res.Route)
		}
		if res.ShardsUsed != n {
			t.Fatalf("%d shards: used %d", n, res.ShardsUsed)
		}
		if !slices.Equal(canonical(res.Table), want) {
			t.Fatalf("%d shards: result multiset differs from single engine", n)
		}
	}
}

// TestScatterOrderBy checks exact row order equality under a total ORDER
// BY key: the coordinator's finalize full-sorts the concatenation into the
// single-engine order.
func TestScatterOrderBy(t *testing.T) {
	const rows = 1200
	q := q6SQL + ` ORDER BY ws_item_sk, ws_order_number`
	ref, err := singleEngine(rows).Query(q)
	if err != nil {
		t.Fatal(err)
	}
	c := newLocalCluster(t, 3, rows)
	res, err := windowdb.Collect(context.Background(), c, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Route != "scatter" {
		t.Fatalf("route %q, want scatter", res.Route)
	}
	if res.FinalSort != "full" {
		t.Fatalf("final sort %q, want full", res.FinalSort)
	}
	if !slices.Equal(ordered(res.Table), ordered(ref.Table)) {
		t.Fatal("ordered rows differ from single engine")
	}
}

// TestScatterLimit: ORDER BY + LIMIT must apply after the global sort.
func TestScatterLimit(t *testing.T) {
	const rows = 800
	q := q6SQL + ` ORDER BY wf1 DESC, ws_order_number LIMIT 10`
	ref, err := singleEngine(rows).Query(q)
	if err != nil {
		t.Fatal(err)
	}
	c := newLocalCluster(t, 4, rows)
	res, err := windowdb.Collect(context.Background(), c, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() != 10 {
		t.Fatalf("limit: got %d rows", res.Table.Len())
	}
	if !slices.Equal(ordered(res.Table), ordered(ref.Table)) {
		t.Fatal("top-10 differs from single engine")
	}
}

// TestScatterWhereDistinct: WHERE is shard-local; DISTINCT re-deduplicates
// at the coordinator (duplicates may span shards only when the projection
// drops the shard key — forced here).
func TestScatterWhereDistinct(t *testing.T) {
	const rows = 1500
	q := `SELECT DISTINCT ws_warehouse_sk, rank() OVER (PARTITION BY ws_item_sk, ws_warehouse_sk ORDER BY ws_sold_date_sk) AS r
	 FROM web_sales WHERE ws_quantity <= 50 ORDER BY ws_warehouse_sk, r`
	ref, err := singleEngine(rows).Query(q)
	if err != nil {
		t.Fatal(err)
	}
	c := newLocalCluster(t, 4, rows)
	res, err := windowdb.Collect(context.Background(), c, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Route != "scatter" {
		t.Fatalf("route %q, want scatter", res.Route)
	}
	if !slices.Equal(ordered(res.Table), ordered(ref.Table)) {
		t.Fatal("DISTINCT result differs from single engine")
	}
}

// TestShardKeyMergesSignedZeros: +0.0 and −0.0 are one shard-key value —
// one window partition to every reorder — so registration places them on
// the same shard and a scattered count(*) OVER (PARTITION BY x) sees all ten
// of key zero's rows (300 rows, 30 float keys, zero's alternating in sign).
// Hashed by their bits the two agreed modulo 2 and on no other shard count.
func TestShardKeyMergesSignedZeros(t *testing.T) {
	table := storage.NewTable(storage.NewSchema(storage.Column{Name: "x", Type: storage.TypeFloat}))
	for i := 0; i < 300; i++ {
		x := float64(i % 30)
		if x == 0 && i/30%2 == 1 {
			x = math.Copysign(0, -1)
		}
		table.MustAppend(storage.Tuple{storage.Float(x)})
	}
	ctx := context.Background()
	for _, shards := range []int{2, 3} {
		c := newLocalCluster(t, shards, 10)
		if err := c.RegisterSharded(ctx, "t", table, "x"); err != nil {
			t.Fatal(err)
		}
		res, err := windowdb.Collect(ctx, c, `SELECT x, count(*) OVER (PARTITION BY x) AS n FROM t`)
		if err != nil {
			t.Fatal(err)
		}
		if res.Route != "scatter" || res.Table.Len() != 300 {
			t.Fatalf("%d shards: route %q, %d rows, want scatter and 300", shards, res.Route, res.Table.Len())
		}
		for _, row := range res.Table.Rows {
			if row[1].Int64() != 10 {
				t.Fatalf("%d shards: x = %v counts %d rows in its partition, want 10", shards, row[0], row[1].Int64())
			}
		}
	}
}

// TestKeylessShuffleEquivalence: a chain with no usable shuffle key (an
// empty PARTITION BY) is one segment keyed on nothing, so every row
// shuffles to one node — the raw round from all of them, the chain on that
// one alone — and still matches the single engine.
func TestKeylessShuffleEquivalence(t *testing.T) {
	const rows = 1000
	ref, err := singleEngine(rows).Query(keylessSQL)
	if err != nil {
		t.Fatal(err)
	}
	c, svcs := streamCluster(t, 3, rows, Config{})
	res, err := windowdb.Collect(context.Background(), c, keylessSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Route != "shuffle" || res.ShardsUsed != 3 {
		t.Fatalf("route %q over %d shards, want shuffle over 3", res.Route, res.ShardsUsed)
	}
	if !slices.Equal(canonical(res.Table), canonical(ref.Table)) {
		t.Fatal("keyless result multiset differs from single engine")
	}
	// One raw round on every node, and the chain's comparisons on one node.
	sites := 0
	for i, svc := range svcs {
		st := svc.Stats()
		if st.ShuffleRounds != 1 {
			t.Fatalf("node %d ran %d shuffle rounds, want 1", i, st.ShuffleRounds)
		}
		if st.Comparisons > 0 {
			sites++
		}
	}
	requireIdle(t, c)
	if sites != 1 {
		t.Fatalf("%d nodes ran the chain, want the single site", sites)
	}
}

// TestShuffleEquivalence is the tentpole acceptance bar: key-divergent
// chains (two and three segments with different PARTITION BY keys)
// execute per segment with node-to-node re-shuffles over 1, 2 and 4
// in-process shards, value-identical to the single-engine result, and
// leave no buffered shuffle state behind.
func TestShuffleEquivalence(t *testing.T) {
	const rows = 2500
	for _, q := range []string{divergeSQL, diverge3SQL} {
		ref, err := singleEngine(rows).Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want := canonical(ref.Table)
		for _, n := range []int{1, 2, 4} {
			c := newLocalCluster(t, n, rows)
			res, err := windowdb.Collect(context.Background(), c, q)
			if err != nil {
				t.Fatalf("%d shards: %v", n, err)
			}
			if res.Route != "shuffle" {
				t.Fatalf("%d shards: route %q, want shuffle", n, res.Route)
			}
			if res.ShardsUsed != n {
				t.Fatalf("%d shards: used %d", n, res.ShardsUsed)
			}
			if !slices.Equal(canonical(res.Table), want) {
				t.Fatalf("%d shards: shuffle result multiset differs from single engine", n)
			}
			requireIdle(t, c)
		}
	}
}

// nodeSteps reads what every node executed off a query's trace: per node
// subtree, its execute span's steps as "step wfN <reorder>".
func nodeSteps(root *trace.Span) [][]string {
	var nodes [][]string
	for _, node := range root.Children {
		if !strings.HasPrefix(node.Name, "node ") {
			continue
		}
		got := []string{}
		for _, ex := range node.Children {
			for _, st := range ex.Children {
				if ex.Name == "execute" && strings.HasPrefix(st.Name, "step ") {
					got = append(got, st.Name+" "+st.Attrs["reorder"])
				}
			}
		}
		nodes = append(nodes, got)
	}
	return nodes
}

// lastStageSteps is what nodeSteps reads off a node that ran plan
// verbatim: the steps of its last segment, the last stage's.
func lastStageSteps(plan *core.Plan) []string {
	segs := exec.Segments(plan)
	want := []string{}
	for _, st := range plan.Steps[segs[len(segs)-1].Lo:] {
		want = append(want, fmt.Sprintf("step wf%d %s", st.WF.ID+1, st.Reorder))
	}
	return want
}

// TestShuffleRunsTheCoordinatorsPlan: the shuffle route's nodes run the
// coordinator's plan verbatim, cut where exec.Segments cuts it. Paper Q9
// under CSO has PARTITION-BY-less functions, so it leads with a keyless
// segment — every row to one node — but is no longer one site: its last
// segment is keyed and runs on every node holding rows, so over 3 shards
// the chain spends comparisons on at least two nodes. Each node's
// final-segment steps are the coordinator's, reorder for reorder.
func TestShuffleRunsTheCoordinatorsPlan(t *testing.T) {
	const rows = 1500
	q := paper.Statements["Q9"]
	ref, err := singleEngine(rows).Query(q)
	if err != nil {
		t.Fatal(err)
	}
	c, svcs := streamCluster(t, 3, rows, Config{})
	res, err := windowdb.Collect(context.Background(), c, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Route != "shuffle" {
		t.Fatalf("route %q, want shuffle", res.Route)
	}
	if !slices.Equal(canonical(res.Table), canonical(ref.Table)) {
		t.Fatal("Q9's shuffled result multiset differs from the single engine's")
	}
	segs := exec.Segments(res.Plan)
	if len(segs) < 2 || segs[0].Key != 0 || segs[len(segs)-1].Key == 0 {
		t.Fatalf("plan %s cuts into %+v, want a keyless lead and a keyed last segment", res.Plan, segs)
	}
	sites := 0
	for _, svc := range svcs {
		if svc.Stats().Comparisons > 0 {
			sites++
		}
	}
	if sites < 2 {
		t.Fatalf("%d nodes compared rows, want the last segment's work spread over ≥ 2", sites)
	}
	nodes := nodeSteps(res.Trace)
	for i, got := range nodes {
		if want := lastStageSteps(res.Plan); !slices.Equal(got, want) {
			t.Errorf("node %d ran %v, the coordinator planned %v", i, got, want)
		}
	}
	if len(nodes) != 3 {
		t.Fatalf("the trace holds %d node subtrees, want 3", len(nodes))
	}
}

// TestScatterRunsTheCoordinatorsPlan: a statement of zero rounds runs the
// coordinator's plan as a shuffle's last stage does — the chain that runs
// is the chain that is reported. At M = 1 MB the coordinator plans paper Q1
// and F3 against all 8 000 rows, where each of 4 nodes holding a quarter of
// them would have picked another chain for its own partition; with scan
// sharing off, every node's steps are res.Plan's, reorder for reorder.
func TestScatterRunsTheCoordinatorsPlan(t *testing.T) {
	const rows, n = 8000, 4
	c, _ := localCluster(t, n, rows, service.Config{DisableSharing: true})
	for _, name := range []string{"Q1", "F3"} {
		res, err := windowdb.Collect(context.Background(), c, paper.Statements[name])
		if err != nil {
			t.Fatal(err)
		}
		if res.Route != "scatter" {
			t.Fatalf("%s: route %q, want scatter", name, res.Route)
		}
		want := lastStageSteps(res.Plan)
		if len(want) != len(res.Plan.Steps) {
			t.Fatalf("%s: plan %s is not one segment", name, res.Plan)
		}
		nodes := nodeSteps(res.Trace)
		if len(nodes) != n {
			t.Fatalf("%s: the trace holds %d node subtrees, want %d", name, len(nodes), n)
		}
		for i, got := range nodes {
			if !slices.Equal(got, want) {
				t.Errorf("%s: node %d ran %v, the coordinator planned %v (%s)", name, i, got, want, res.Plan.PaperString())
			}
		}
	}
}

// TestNodeScanSharing: the nodes of a sharded table key their shared scans
// on the plan they run, the coordinator's. Over 2 nodes of 2 000 rows
// sharded on item, a rank over the item partitions misses each node's
// subplan cache, the same statement again hits it, and a count over the
// same partitioning hits the finer segment the rank left (the
// frame-lattice hit).
func TestNodeScanSharing(t *testing.T) {
	c, svcs := localCluster(t, 2, 2000, service.Config{})
	const rank = `SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r FROM web_sales`
	for _, q := range []string{rank, rank, `SELECT ws_item_sk, count(*) OVER (PARTITION BY ws_item_sk) AS n FROM web_sales`} {
		res, err := windowdb.Collect(context.Background(), c, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Route != "scatter" {
			t.Fatalf("route %q, want scatter: %s", res.Route, q)
		}
	}
	for i, svc := range svcs {
		if st := svc.Stats().Subplans; st.Misses != 1 || st.Hits != 2 || st.Attaches != 0 {
			t.Errorf("node %d subplan cache: %d misses, %d hits, %d attaches, want 1, 2 and 0", i, st.Misses, st.Hits, st.Attaches)
		}
	}
}

// TestShuffleOrderByDistinctLimit: the coordinator's finalize applies
// DISTINCT, the total ORDER BY and LIMIT over the shuffled chain exactly
// as over a scatter — row-for-row identical to the single engine.
func TestShuffleOrderByDistinctLimit(t *testing.T) {
	const rows = 1200
	for _, q := range []string{
		divergeSQL + ` ORDER BY ws_order_number`,
		divergeSQL + ` ORDER BY a DESC, b, ws_order_number LIMIT 10`,
		`SELECT DISTINCT ws_warehouse_sk,
		 rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a,
		 rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_date_sk) AS b
		 FROM web_sales WHERE ws_quantity <= 50 ORDER BY ws_warehouse_sk, a, b`,
	} {
		ref, err := singleEngine(rows).Query(q)
		if err != nil {
			t.Fatal(err)
		}
		c := newLocalCluster(t, 3, rows)
		res, err := windowdb.Collect(context.Background(), c, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Route != "shuffle" {
			t.Fatalf("route %q, want shuffle", res.Route)
		}
		if !slices.Equal(ordered(res.Table), ordered(ref.Table)) {
			t.Fatalf("ordered shuffle rows differ from single engine for %q", q)
		}
	}
}

// TestReplicaRoute: replicated tables serve whole queries on one node.
func TestReplicaRoute(t *testing.T) {
	c := newLocalCluster(t, 3, 400)
	ref, err := singleEngine(400).Query(`SELECT empnum, rank() OVER (ORDER BY salary DESC) AS r FROM emptab ORDER BY r, empnum`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // round-robin hits every node
		res, err := windowdb.Collect(context.Background(), c, `SELECT empnum, rank() OVER (ORDER BY salary DESC) AS r FROM emptab ORDER BY r, empnum`)
		if err != nil {
			t.Fatal(err)
		}
		if res.Route != "replica" || res.ShardsUsed != 1 {
			t.Fatalf("route %q used %d, want replica/1", res.Route, res.ShardsUsed)
		}
		if !slices.Equal(ordered(res.Table), ordered(ref.Table)) {
			t.Fatal("replica result differs from single engine")
		}
	}
}

// TestPlanCache: the second identical query hits the coordinator cache;
// registration invalidates it.
func TestPlanCache(t *testing.T) {
	c := newLocalCluster(t, 2, 300)
	ctx := context.Background()
	r1, err := windowdb.Collect(ctx, c, q6SQL)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Fatal("first query cannot hit")
	}
	r2, err := windowdb.Collect(ctx, c, "  "+q6SQL+"  ")
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("whitespace variant should hit the coordinator cache")
	}
	ws := datagen.WebSales(datagen.WebSalesConfig{Rows: 300, Seed: 9})
	if err := c.RegisterSharded(ctx, "web_sales", ws, "ws_item_sk"); err != nil {
		t.Fatal(err)
	}
	r3, err := windowdb.Collect(ctx, c, q6SQL)
	if err != nil {
		t.Fatal(err)
	}
	if r3.CacheHit {
		t.Fatal("re-registration must invalidate the cached plan")
	}
}

// TestCacheHammer drives the coordinator's plan cache and every node's two
// caches while re-registrations of both tables and appends race queries
// over every route. A node's partition is re-registered and appended to on
// its own, so a result may mix versions across nodes, but its row count
// stays within what the registered table and the appends could give. Once
// the writers stop, one more lookup per cache leaves no stale entry behind.
func TestCacheHammer(t *testing.T) {
	const rows, appends = 800, 20
	const empQ = `SELECT empnum, rank() OVER (ORDER BY salary DESC NULLS LAST) AS r FROM emptab`
	const shareQ = `SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r FROM web_sales`
	c := newLocalCluster(t, 2, rows)
	ctx := context.Background()
	ws := datagen.WebSales(datagen.WebSalesConfig{Rows: rows, Seed: 7})
	emp := make([]*storage.Table, 4)
	for v := range emp {
		emp[v] = datagen.Emptab()
		emp[v].Rows = emp[v].Rows[:10-v]
	}
	valid := func(q string, n int) bool {
		if q == empQ {
			return n > 10-len(emp) && n <= 10
		}
		return n >= rows && n <= rows+appends
	}

	var writers, readers sync.WaitGroup
	registered := make(chan struct{})
	writers.Add(2)
	go func() {
		defer writers.Done()
		defer close(registered)
		for i := 1; i <= 8; i++ {
			if err := c.RegisterSharded(ctx, "web_sales", ws, "ws_item_sk"); err != nil {
				t.Error(err)
				return
			}
			if err := c.RegisterReplicated(ctx, "emptab", emp[i%len(emp)]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < appends; i++ {
			if i == appends-1 {
				// The last write is an append over cached segments: no epoch
				// move sweeps them away, only the next miss does.
				<-registered
				if _, err := windowdb.Collect(ctx, c, shareQ); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := c.Append(ctx, "web_sales", []storage.Tuple{slices.Clone(ws.Rows[i])}, 0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	mix := []string{q6SQL, shareQ, divergeSQL, keylessSQL, empQ}
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; i < 15; i++ {
				q := mix[(g+i)%len(mix)]
				res, err := windowdb.Collect(ctx, c, q)
				if err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
				if !valid(q, res.Table.Len()) {
					t.Errorf("%s served %d rows: no version of its table had that many", q, res.Table.Len())
					return
				}
			}
		}(g)
	}
	writers.Wait()
	readers.Wait()

	// One more lookup per cache: a shareable scatter statement goes through
	// the coordinator's plan cache and both caches of every node.
	res, err := windowdb.Collect(ctx, c, shareQ)
	if err != nil {
		t.Fatal(err)
	}
	held := 0
	for _, tr := range c.shards {
		part, err := tr.(*Local).Service().Engine().Table("web_sales")
		if err != nil {
			t.Fatal(err)
		}
		held += part.Len()
	}
	if res.Table.Len() != held {
		t.Fatalf("after the writers stopped: %d rows, the nodes hold %d", res.Table.Len(), held)
	}
	invalidations := func() []uint64 {
		out := []uint64{c.front.CacheStats().Invalidations}
		for _, tr := range c.shards {
			st := tr.(*Local).Service().Stats()
			out = append(out, st.Cache.Invalidations, st.Subplans.Invalidations)
		}
		return out
	}
	// Registering a table no statement reads moves every epoch, so the next
	// Stats sweeps every cache — and may find nothing stale.
	before := invalidations()
	if err := c.RegisterReplicated(ctx, "probe", emp[0]); err != nil {
		t.Fatal(err)
	}
	if after := invalidations(); !slices.Equal(before, after) {
		t.Fatalf("stale entries outlived the last lookup: invalidations %v before the sweep, %v after", before, after)
	}
}

// TestUnknownTable maps to the catalog sentinel through the cluster.
func TestUnknownTable(t *testing.T) {
	c := newLocalCluster(t, 2, 100)
	_, err := windowdb.Collect(context.Background(), c, `SELECT x FROM nope`)
	if !errors.Is(err, catalog.ErrUnknownTable) {
		t.Fatalf("got %v, want ErrUnknownTable", err)
	}
}

// TestParseErrorClass: parse errors carry the sql sentinel through the
// cluster path.
func TestParseErrorClass(t *testing.T) {
	c := newLocalCluster(t, 2, 100)
	_, err := windowdb.Collect(context.Background(), c, `SELEC nonsense`)
	if !errors.Is(err, sql.ErrParse) {
		t.Fatalf("got %v, want ErrParse", err)
	}
}

// TestStubStatistics: the coordinator's stub entry aggregates shard-local
// statistics — exact row count and byte size, and an exact distinct count
// for sets containing the shard key.
func TestStubStatistics(t *testing.T) {
	const rows = 900
	c := newLocalCluster(t, 3, rows)
	ws := datagen.WebSales(datagen.WebSalesConfig{Rows: rows, Seed: 7})
	entry, err := c.Coordinator().Stats("web_sales")
	if err != nil {
		t.Fatal(err)
	}
	if !entry.Stub() {
		t.Fatal("coordinator entry should be a stub")
	}
	if entry.Rows() != int64(rows) {
		t.Fatalf("stub rows %d, want %d", entry.Rows(), rows)
	}
	if entry.ByteSize() != int64(ws.ByteSize()) {
		t.Fatalf("stub bytes %d, want %d", entry.ByteSize(), ws.ByteSize())
	}
	itemSet := attrs.MakeSet(attrs.ID(datagen.ColItem))
	if got, want := entry.Distinct(itemSet), int64(ws.DistinctCount(itemSet)); got != want {
		t.Fatalf("stub D(item) = %d, want exact %d (set contains shard key)", got, want)
	}
	// A set not containing the shard key is an upper bound, capped by rows.
	dateSet := attrs.MakeSet(attrs.ID(datagen.ColSoldDate))
	if got := entry.Distinct(dateSet); got < int64(ws.DistinctCount(dateSet)) || got > int64(rows) {
		t.Fatalf("stub D(date) = %d out of [exact, rows]", got)
	}
}

// TestClusterStats: routing counters and shard fan-out aggregate.
func TestClusterStats(t *testing.T) {
	c := newLocalCluster(t, 2, 300)
	ctx := context.Background()
	if _, err := windowdb.Collect(ctx, c, q6SQL); err != nil {
		t.Fatal(err)
	}
	if _, err := windowdb.Collect(ctx, c, keylessSQL); err != nil {
		t.Fatal(err)
	}
	if _, err := windowdb.Collect(ctx, c, `SELECT empnum FROM emptab`); err != nil {
		t.Fatal(err)
	}
	if _, err := windowdb.Collect(ctx, c, divergeSQL); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Queries != 4 || stats.Scatter != 1 || stats.Shuffle != 2 || stats.Replica != 1 {
		t.Fatalf("counters: %+v", stats)
	}
	if len(stats.ShardStats) != 2 {
		t.Fatalf("want 2 shard snapshots, got %d", len(stats.ShardStats))
	}
	// The scatter ran on both shards, the replica on one, and each
	// shuffle's final segment streamed from both: 7 shard-side queries
	// total (shuffle rounds count on their own gauge).
	if stats.ShardQueries != 7 {
		t.Fatalf("shard queries %d, want 7", stats.ShardQueries)
	}
	// Every shard ran keylessSQL's raw round and ≥ 1 non-final stage of
	// divergeSQL (the exact count depends on which segment the planner
	// puts first relative to the shard key).
	if stats.ShardShuffleRounds < 4 {
		t.Fatalf("shard shuffle rounds %d, want ≥ 4", stats.ShardShuffleRounds)
	}
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentQueries hammers one cluster from many goroutines under
// -race: scatter, keyless-shuffle and replica routes interleaved.
func TestConcurrentQueries(t *testing.T) {
	const rows = 600
	c := newLocalCluster(t, 3, rows)
	refQ6, err := singleEngine(rows).Query(q6SQL)
	if err != nil {
		t.Fatal(err)
	}
	want := canonical(refQ6.Table)
	queries := []string{q6SQL, keylessSQL, `SELECT empnum FROM emptab`}
	done := make(chan error, 12)
	for g := 0; g < 12; g++ {
		go func(g int) {
			q := queries[g%len(queries)]
			res, err := windowdb.Collect(context.Background(), c, q)
			if err == nil && q == q6SQL && !slices.Equal(canonical(res.Table), want) {
				err = errors.New("concurrent scatter result differs")
			}
			done <- err
		}(g)
	}
	for g := 0; g < 12; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
