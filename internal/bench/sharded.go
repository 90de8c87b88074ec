package bench

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"runtime"
	"time"

	"repro"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/storage"
)

// ShardedResult is one shard-count measurement of the sharded-cluster
// scenario.
type ShardedResult struct {
	Query    string
	Shards   int
	Elapsed  time.Duration
	Blocks   int64 // summed shard-side spill I/O
	Scaleout float64
	// HTTP marks the extra HTTP-transport round trip appended after the
	// in-process sweep.
	HTTP bool
}

// shardedQ6 is the Q6 chain (Table 3) as SQL: both functions share WPK
// {ws_item_sk}, so a cluster sharded on ws_item_sk scatters it — every
// node runs the unchanged pipeline over its own partition.
const shardedQ6 = `SELECT rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r1,
        rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_bill_customer_sk) AS r2 FROM web_sales`

// shardCounts are the in-process sweep points; shardedReps the per-point
// repetition count (best-of).
var (
	shardCounts = []int{1, 2, 4}
	shardedReps = 5
)

// RunSharded measures scatter-gather execution of the Q6 chain over 1, 2
// and 4 in-process shards (shard.Local transports over per-node engines
// with private simulated block stores and the full unit memory M), then
// one 2-shard HTTP-transport round trip (httptest sockets). As with
// RunParallel, two effects compound: nodes run concurrently, and hash
// partitioning shrinks every per-node reorder — at this memory point the
// 1-shard Full Sort pays a materialized second merge pass that vanishes
// from 4 shards on, so spill I/O drops structurally, not just wall time.
// Every configuration's result multiset is verified against the 1-shard
// answer.
func (d *Dataset) RunSharded(w io.Writer) ([]ShardedResult, error) {
	mem := d.SchemeMemSweep()[1]
	engCfg := windowdb.Config{
		SortMemBytes: mem.Bytes(d.Cfg.BlockSize),
		BlockSize:    d.Cfg.BlockSize,
		// The simulated (memory-backed) block substrate: spill I/O is
		// exact accounting over deterministic memory traffic, so the
		// structural effect — the second merge pass vanishing per node —
		// shows up as a stable wall-clock win even on a single-core,
		// noisy-disk host. RunParallel keeps the file-backed variant for
		// the real-temp-file story.
		Parallelism: 1, // isolate the sharding effect from in-node parallelism
		DisableHS:   true,
	}
	fprintf(w, "== Sharded cluster execution: Q6 scatter over in-process shards, web_sales %d rows, M = %s ==\n",
		d.Cfg.Rows, mem.Label)
	fprintf(w, "%-10s  %12s  %10s  %9s\n", "shards", "time", "blocks", "scaleout")

	ctx := context.Background()
	clusters := make([]*shard.Cluster, len(shardCounts))
	for i, n := range shardCounts {
		c, err := newLocalCluster(engCfg, n)
		if err != nil {
			return nil, err
		}
		if err := c.RegisterSharded(ctx, "web_sales", d.WebSales, "ws_item_sk"); err != nil {
			return nil, err
		}
		clusters[i] = c
	}

	// Interleaved best-of, as in RunParallel: the minimum is the closest
	// observable to the true cost on a time-shared host, and interleaving
	// spreads slow phases across all shard counts.
	elapsed := make([]time.Duration, len(shardCounts))
	tables := make([]*storage.Table, len(shardCounts))
	blocks := make([]int64, len(shardCounts))
	for rep := 0; rep < shardedReps; rep++ {
		for i := range shardCounts {
			runtime.GC()
			start := time.Now()
			res, err := windowdb.Collect(ctx, clusters[i], shardedQ6)
			if err != nil {
				return nil, fmt.Errorf("sharded %d: %w", shardCounts[i], err)
			}
			if res.Route != "scatter" {
				return nil, fmt.Errorf("sharded %d: routed %q, want scatter", shardCounts[i], res.Route)
			}
			e := time.Since(start)
			if rep == 0 || e < elapsed[i] {
				elapsed[i], tables[i], blocks[i] = e, res.Table, res.BlocksRead+res.BlocksWritten
			}
		}
	}
	want := canonicalRows(tables[0])
	var out []ShardedResult
	for i, n := range shardCounts {
		if i > 0 && !equalRows(canonicalRows(tables[i]), want) {
			return nil, fmt.Errorf("sharded %d changed the result multiset", n)
		}
		res := ShardedResult{
			Query: "Q6", Shards: n, Elapsed: elapsed[i], Blocks: blocks[i],
			Scaleout: float64(elapsed[0]) / float64(elapsed[i]),
		}
		out = append(out, res)
		fprintf(w, "%-10d  %12v  %10d  %8.2fx\n",
			n, elapsed[i].Round(time.Millisecond), res.Blocks, res.Scaleout)
	}

	// One HTTP-transport round trip: the same scatter over two windserve
	// handlers behind real sockets, verified against the in-process answer.
	httpRes, err := runShardedHTTP(engCfg, d.WebSales, want)
	if err != nil {
		return nil, err
	}
	httpRes.Scaleout = float64(elapsed[0]) / float64(httpRes.Elapsed)
	out = append(out, *httpRes)
	fprintf(w, "%-10s  %12v  %10d  %8.2fx   (2 shards over HTTP, incl. wire codec)\n",
		"2/http", httpRes.Elapsed.Round(time.Millisecond), httpRes.Blocks, httpRes.Scaleout)
	return out, nil
}

// newLocalCluster builds an n-node in-process cluster where every node is
// a service over its own engine.
func newLocalCluster(engCfg windowdb.Config, n int) (*shard.Cluster, error) {
	transports := make([]shard.Transport, n)
	for i := range transports {
		eng := windowdb.New(engCfg)
		transports[i] = shard.NewLocal(service.New(eng, service.Config{Slots: 1}))
	}
	return shard.New(shard.Config{Engine: engCfg}, transports)
}

// runShardedHTTP runs one verified Q6 scatter over a 2-shard
// HTTP-transport cluster.
func runShardedHTTP(engCfg windowdb.Config, ws *storage.Table, want []string) (*ShardedResult, error) {
	const n = 2
	transports := make([]shard.Transport, n)
	servers := make([]*httptest.Server, n)
	for i := range transports {
		eng := windowdb.New(engCfg)
		servers[i] = httptest.NewServer(service.New(eng, service.Config{Slots: 1, ShardRoutes: true}).Handler())
		transports[i] = shard.NewHTTP(servers[i].URL, servers[i].Client())
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	c, err := shard.New(shard.Config{Engine: engCfg}, transports)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if err := c.RegisterSharded(ctx, "web_sales", ws, "ws_item_sk"); err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := windowdb.Collect(ctx, c, shardedQ6)
	if err != nil {
		return nil, fmt.Errorf("sharded http: %w", err)
	}
	if res.Route != "scatter" {
		return nil, fmt.Errorf("sharded http: routed %q, want scatter", res.Route)
	}
	if !equalRows(canonicalRows(res.Table), want) {
		return nil, fmt.Errorf("sharded http changed the result multiset")
	}
	return &ShardedResult{
		Query: "Q6", Shards: n, Elapsed: time.Since(start),
		Blocks: res.BlocksRead + res.BlocksWritten, HTTP: true,
	}, nil
}
