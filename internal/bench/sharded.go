package bench

import (
	"context"
	"fmt"
	"net/http/httptest"

	"repro"
	"repro/internal/paper"
	"repro/internal/service"
	"repro/internal/shard"
)

// shardCounts are the in-process sweep points of the sharded scenario.
var shardCounts = []int{1, 2, 4}

// sharded measures scatter-gather execution of Q6 over 1, 2 and 4
// in-process shards (shard.Local transports over per-node engines with
// private simulated block stores and the full unit memory M), then over 2
// shards behind HTTP handlers (httptest sockets, wire codec included). Q6's
// functions share WPK {ws_item_sk}, so a cluster sharded on ws_item_sk
// scatters it: every node runs the unchanged pipeline over its own
// partition. As with parallel, two effects compound: nodes run
// concurrently, and hash partitioning shrinks every per-node reorder — at
// this memory point the 1-shard Full Sort pays a materialized second merge
// pass that vanishes from 4 shards on, so spill I/O drops structurally, not
// just wall time. Every configuration's result multiset is verified against
// the 1-shard answer.
func (d *Dataset) sharded() ([]Row, error) {
	mem := d.SchemeMemSweep()[1]
	engCfg := windowdb.Config{
		SortMemBytes: mem.Bytes(d.Cfg.BlockSize),
		BlockSize:    d.Cfg.BlockSize,
		// The simulated (memory-backed) block substrate: spill I/O is
		// exact accounting over deterministic memory traffic, so the
		// structural effect — the second merge pass vanishing per node —
		// shows up as a stable wall-clock win even on a single-core,
		// noisy-disk host. parallel keeps the file-backed variant for the
		// real-temp-file story.
		Parallelism: 1, // isolate the sharding effect from in-node parallelism
		DisableHS:   true,
	}
	var rows []Row
	var queryers []windowdb.Queryer
	add := func(variant string, transports []shard.Transport) error {
		c, err := shard.New(shard.Config{Engine: engCfg}, transports)
		if err != nil {
			return err
		}
		if err := c.RegisterSharded(context.Background(), "web_sales", d.WebSales, "ws_item_sk"); err != nil {
			return err
		}
		rows = append(rows, Row{Exp: "sharded", Query: "Q6", Variant: variant, Mem: mem})
		queryers = append(queryers, c)
		return nil
	}
	for _, n := range shardCounts {
		transports := make([]shard.Transport, n)
		for i := range transports {
			transports[i] = shard.NewLocal(service.New(windowdb.New(engCfg), service.Config{Slots: 1}))
		}
		if err := add(fmt.Sprint(n), transports); err != nil {
			return nil, err
		}
	}
	transports := make([]shard.Transport, 2)
	for i := range transports {
		srv := httptest.NewServer(service.New(windowdb.New(engCfg), service.Config{Slots: 1, ShardRoutes: true}).Handler())
		defer srv.Close()
		transports[i] = shard.NewHTTP(srv.URL, srv.Client())
	}
	if err := add("2/http", transports); err != nil {
		return nil, err
	}

	out, err := d.bestOf(rows, queryers, paper.Statements["Q6"])
	if err != nil {
		return nil, err
	}
	for _, r := range out {
		if r.Detail != "route=scatter" {
			return nil, fmt.Errorf("sharded %s: %s, want route=scatter", r.Variant, r.Detail)
		}
	}
	return out, nil
}
