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
	"repro/internal/trace"
)

// shuffleQ6 is the Q6-style chain with a divergent second segment: wf1
// keeps Q6's WPK {ws_item_sk} (the shard key), wf2 partitions on
// ws_warehouse_sk instead — ChainCommonKey is empty, so the chain cannot
// scatter whole. The cluster runs it per segment, each node re-shuffling
// its wf1 output directly to the peers hash-partitioned on the warehouse
// key before wf2 runs (route "shuffle"); the pre-PR-5 cluster would have
// hauled every raw row to the coordinator and run both functions there.
const shuffleQ6 = `SELECT rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r1,
        rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_date_sk) AS r2 FROM web_sales`

// RunShuffle measures per-segment distributed execution of the
// key-divergent Q6 variant over 1, 2 and 4 in-process shards, then 2- and
// 4-shard HTTP-transport round trips (real sockets; binary columnar frame
// streams and shuffle data plane). Unlike the gather fallback it replaces,
// both chain segments run partitioned on every node and only the final
// segment's output ever reaches the coordinator, so wall time scales with shard count while
// coordinator-resident rows stay bounded by the wire batch. Every
// configuration's result multiset is verified against the 1-shard answer.
func (d *Dataset) RunShuffle(w io.Writer) ([]ShardedResult, error) {
	mem := d.SchemeMemSweep()[1]
	engCfg := windowdb.Config{
		SortMemBytes: mem.Bytes(d.Cfg.BlockSize),
		BlockSize:    d.Cfg.BlockSize,
		// Memory-backed substrate and no in-node parallelism, as in
		// RunSharded: the measured effect is the cluster topology.
		Parallelism: 1,
		DisableHS:   true,
	}
	fprintf(w, "== Shuffle execution: key-divergent Q6 (item → warehouse) over in-process shards, web_sales %d rows, M = %s ==\n",
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

	elapsed := make([]time.Duration, len(shardCounts))
	tables := make([]*storage.Table, len(shardCounts))
	blocks := make([]int64, len(shardCounts))
	slowest := make([]time.Duration, len(shardCounts))
	traces := make([][]string, len(shardCounts))
	for rep := 0; rep < shardedReps; rep++ {
		for i := range shardCounts {
			runtime.GC()
			start := time.Now()
			res, err := clusters[i].Query(ctx, shuffleQ6)
			if err != nil {
				return nil, fmt.Errorf("shuffle %d: %w", shardCounts[i], err)
			}
			if res.Route != "shuffle" {
				return nil, fmt.Errorf("shuffle %d: routed %q, want shuffle", shardCounts[i], res.Route)
			}
			e := time.Since(start)
			if rep == 0 || e < elapsed[i] {
				elapsed[i], tables[i], blocks[i] = e, res.Table, res.BlocksRead+res.BlocksWritten
			}
			if rep == 0 || e > slowest[i] {
				slowest[i], traces[i] = e, trace.Render(res.Trace)
			}
		}
	}
	want := canonicalRows(tables[0])
	var out []ShardedResult
	for i, n := range shardCounts {
		if i > 0 && !equalRows(canonicalRows(tables[i]), want) {
			return nil, fmt.Errorf("shuffle %d changed the result multiset", n)
		}
		res := ShardedResult{
			Query: "Q6d", Shards: n, Elapsed: elapsed[i], Blocks: blocks[i],
			Scaleout: float64(elapsed[0]) / float64(elapsed[i]),
			Trace:    traces[i],
		}
		out = append(out, res)
		fprintf(w, "%-10d  %12v  %10d  %8.2fx\n",
			n, elapsed[i].Round(time.Millisecond), res.Blocks, res.Scaleout)
	}

	for _, n := range httpShardCounts {
		httpRes, err := runShuffleHTTP(engCfg, d.WebSales, want, n)
		if err != nil {
			return nil, err
		}
		httpRes.Scaleout = float64(elapsed[0]) / float64(httpRes.Elapsed)
		out = append(out, *httpRes)
		fprintf(w, "%-10s  %12v  %10d  %8.2fx   (%d shards over HTTP, incl. node-to-node shuffle)\n",
			fmt.Sprintf("%d/http", n), httpRes.Elapsed.Round(time.Millisecond), httpRes.Blocks, httpRes.Scaleout, n)
	}
	return out, nil
}

// httpShardCounts are the HTTP-transport sweep points: the 4-shard point
// is the headline wire-codec measurement the committed baseline gates.
var httpShardCounts = []int{2, 4}

// runShuffleHTTP runs one verified key-divergent chain over an n-shard
// HTTP-transport cluster: the rounds' control plane and the re-shuffled
// rows both cross real sockets.
func runShuffleHTTP(engCfg windowdb.Config, ws *storage.Table, want []string, n int) (*ShardedResult, error) {
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
	// Best-of like the in-process points: one-shot socket timings are far
	// too noisy to gate a baseline comparison on.
	out := &ShardedResult{Query: "Q6d", Shards: n, HTTP: true}
	var slowest time.Duration
	for rep := 0; rep < shardedReps; rep++ {
		runtime.GC()
		start := time.Now()
		res, err := c.Query(ctx, shuffleQ6)
		if err != nil {
			return nil, fmt.Errorf("shuffle http: %w", err)
		}
		if res.Route != "shuffle" {
			return nil, fmt.Errorf("shuffle http: routed %q, want shuffle", res.Route)
		}
		if !equalRows(canonicalRows(res.Table), want) {
			return nil, fmt.Errorf("shuffle http changed the result multiset")
		}
		e := time.Since(start)
		if rep == 0 || e < out.Elapsed {
			out.Elapsed, out.Blocks = e, res.BlocksRead+res.BlocksWritten
		}
		if rep == 0 || e > slowest {
			slowest, out.Trace = e, trace.Render(res.Trace)
		}
	}
	return out, nil
}
