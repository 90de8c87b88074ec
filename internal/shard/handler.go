package shard

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/service"
	"repro/internal/trace"
)

// ClusterStats is the coordinator's /stats payload: cluster-level routing
// counters plus every shard's service snapshot and their headline
// aggregates.
type ClusterStats struct {
	Shards   int    `json:"shards"`
	Queries  uint64 `json:"queries"`
	Failures uint64 `json:"failures"`
	// Aborted counts streamed queries closed before their last row
	// (client disconnects, deliberate truncation) — neither successes
	// nor failures.
	Aborted uint64 `json:"aborted"`
	Scatter uint64 `json:"scatter"`
	// Shuffle counts chains executed per segment with node-to-node
	// re-shuffles: key-divergent ones, and keyless ones on a single node.
	Shuffle uint64 `json:"shuffle"`
	Replica uint64 `json:"replica"`
	// Appends counts cluster-level append batches (INSERT statements and
	// /append bodies routed to the owning nodes); RowsAppended their rows.
	Appends      uint64 `json:"appends"`
	RowsAppended uint64 `json:"rows_appended"`
	// LiveQueries is the coordinator's in-flight query registry size —
	// statements currently inside QueryContext (GET /debug/queries lists
	// them).
	LiveQueries int `json:"live_queries"`

	// Aggregates across the shard snapshots below.
	ShardQueries uint64 `json:"shard_queries"`
	// ShardShuffleRounds sums the shuffle stages the nodes executed for
	// this coordinator's per-segment distributed chains.
	ShardShuffleRounds uint64 `json:"shard_shuffle_rounds"`
	ShardRejected      uint64 `json:"shard_rejected"`
	BlocksRead         int64  `json:"blocks_read"`
	BlocksWritten      int64  `json:"blocks_written"`

	// CoordCache is the coordinator's plan cache.
	CoordCache cache.Stats `json:"coord_cache"`

	ShardStats []service.Snapshot `json:"shard_stats"`
}

// Held names what statements in flight hold across the cluster — the
// coordinator's registry entries and each node's Snapshot.Held — and is ""
// when nothing is held.
func (s *ClusterStats) Held() string {
	var held []string
	if s.LiveQueries != 0 {
		held = append(held, fmt.Sprintf("coordinator: %d registry entries", s.LiveQueries))
	}
	for i, snap := range s.ShardStats {
		if h := snap.Held(); h != "" {
			held = append(held, fmt.Sprintf("node %d: %s", i, h))
		}
	}
	return strings.Join(held, "; ")
}

// Stats fans out to every shard and aggregates.
func (c *Cluster) Stats(ctx context.Context) (*ClusterStats, error) {
	snaps := make([]service.Snapshot, len(c.shards))
	if err := c.eachShard(ctx, func(ctx context.Context, i int, tr Transport) error {
		s, err := tr.Stats(ctx)
		snaps[i] = s
		return err
	}); err != nil {
		return nil, err
	}
	stats := &ClusterStats{
		Shards:       len(c.shards),
		Queries:      c.queries.Load(),
		Failures:     c.failures.Load(),
		Aborted:      c.aborted.Load(),
		Scatter:      c.scatter.Load(),
		Shuffle:      c.shuffled.Load(),
		Replica:      c.replica.Load(),
		Appends:      c.appends.Load(),
		RowsAppended: c.rowsAppended.Load(),
		LiveQueries:  c.Registry().Len(),
		CoordCache:   c.front.CacheStats(),
		ShardStats:   snaps,
	}
	for _, s := range snaps {
		stats.ShardQueries += s.Queries
		stats.ShardShuffleRounds += s.ShuffleRounds
		stats.ShardRejected += s.Rejected
		stats.BlocksRead += s.BlocksRead
		stats.BlocksWritten += s.BlocksWritten
	}
	return stats, nil
}

// StatsBody implements service.Backend: /stats serves Stats.
func (c *Cluster) StatsBody(ctx context.Context) (any, error) {
	stats, err := c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	return stats, nil
}

// WriteMetrics implements service.Backend: the coordinator's routing
// counters and per-shard labelled families built from the shard snapshots,
// so one scrape shows cluster skew.
func (c *Cluster) WriteMetrics(ctx context.Context, p *service.PromWriter) error {
	stats, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	p.Counter("windowdb_appends_total", "Append batches routed to the owning shard nodes.", float64(stats.Appends))
	p.Counter("windowdb_rows_appended_total", "Rows ingested by cluster append batches.", float64(stats.RowsAppended))
	p.Gauge("windowdb_shuffle_round_imbalance", "Most recent shuffle round's max/mean per-node output-row ratio (1 = balanced, 0 = none observed).", c.ShuffleImbalance())

	p.Family("windowdb_route_queries_total", "Queries by coordinator route.", "counter")
	p.Sample("windowdb_route_queries_total", `route="scatter"`, float64(stats.Scatter))
	p.Sample("windowdb_route_queries_total", `route="shuffle"`, float64(stats.Shuffle))
	p.Sample("windowdb_route_queries_total", `route="replica"`, float64(stats.Replica))

	p.Gauge("windowdb_shards", "Shard nodes in the cluster.", float64(stats.Shards))

	shardFamily := func(name, help, typ string, get func(service.Snapshot) float64) {
		p.Family(name, help, typ)
		for i, s := range stats.ShardStats {
			p.Sample(name, fmt.Sprintf("shard=%q", strconv.Itoa(i)), get(s))
		}
	}
	shardFamily("windowdb_shard_queries_total", "Queries completed per shard node.", "counter",
		func(s service.Snapshot) float64 { return float64(s.Queries) })
	shardFamily("windowdb_shard_failures_total", "Failed queries per shard node.", "counter",
		func(s service.Snapshot) float64 { return float64(s.Failures) })
	shardFamily("windowdb_shard_rejected_total", "Admission rejections per shard node.", "counter",
		func(s service.Snapshot) float64 { return float64(s.Rejected) })
	shardFamily("windowdb_shard_shuffle_rounds_total", "Shuffle stages executed per shard node.", "counter",
		func(s service.Snapshot) float64 { return float64(s.ShuffleRounds) })
	shardFamily("windowdb_shard_blocks_read_total", "Storage blocks read per shard node.", "counter",
		func(s service.Snapshot) float64 { return float64(s.BlocksRead) })
	shardFamily("windowdb_shard_blocks_written_total", "Storage blocks spilled per shard node.", "counter",
		func(s service.Snapshot) float64 { return float64(s.BlocksWritten) })
	shardFamily("windowdb_shard_rows_out_total", "Rows yielded per shard node.", "counter",
		func(s service.Snapshot) float64 { return float64(s.RowsOut) })
	shardFamily("windowdb_shard_in_flight", "In-flight executions per shard node.", "gauge",
		func(s service.Snapshot) float64 { return float64(s.InFlight) })
	return nil
}

// LiveQueries implements service.Backend: the coordinator registry's
// snapshot with every shard node's in-flight entries grafted under the
// owning query — node-side stages register under the coordinator's trace
// ID, so matching is by ID. The fan-out is best-effort: an unreachable node
// hides only its own subtree, never the coordinator's view. Node entries
// owned by no listed coordinator query (statements sent to a node
// directly) append at the end, so cluster-wide visibility is complete.
func (c *Cluster) LiveQueries(ctx context.Context) ([]trace.QueryInfo, error) {
	own := c.Registry().Snapshot()
	nodeInfos := make([][]trace.QueryInfo, len(c.shards))
	_ = service.FanOut(len(c.shards), nil, func(i int) error {
		if infos, err := c.shards[i].LiveQueries(ctx); err == nil {
			nodeInfos[i] = infos
		}
		return nil
	})
	byID := make(map[string]int, len(own))
	for i := range own {
		byID[own[i].ID] = i
	}
	var orphans []trace.QueryInfo
	for i, infos := range nodeInfos {
		for _, info := range infos {
			info.Backend = fmt.Sprintf("shardnode %d", i)
			if j, ok := byID[info.ID]; ok {
				own[j].Nodes = append(own[j].Nodes, info)
			} else {
				orphans = append(orphans, info)
			}
		}
	}
	return append(own, orphans...), nil
}

// KillQuery implements service.Backend: fires the coordinator entry's
// cancel and fans the kill out to every node regardless — a node could hold
// a stage of a query whose coordinator entry already finished (or that was
// submitted to the node directly). It reports whether anyone held id.
func (c *Cluster) KillQuery(ctx context.Context, id string) (bool, error) {
	killed := c.Registry().Kill(id)
	var nodeKilled atomic.Bool
	_ = service.FanOut(len(c.shards), nil, func(i int) error {
		if ok, err := c.shards[i].KillQuery(ctx, id); err == nil && ok {
			nodeKilled.Store(true)
		}
		return nil
	})
	return killed || nodeKilled.Load(), nil
}
