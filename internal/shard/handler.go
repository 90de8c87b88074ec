package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
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

// Handler returns the coordinator's HTTP/JSON front end, shaped like the
// single-engine service's (clients don't care which one they talk to):
//
//	POST /query   {"sql": "...", "max_rows": 100, "timeout_ms": 5000}
//	GET  /query?q=SELECT+...
//	GET  /stats   ClusterStats (per-shard snapshots + routing counters)
//	GET  /healthz fans out to every shard; 503 names the first down node
//
// /query responses carry "route" (scatter|shuffle|replica) and
// "shards_used".
// A request carrying "stream":true, ?stream=1 or `Accept:
// application/x-ndjson` gets the chunked NDJSON stream: on the scatter
// route the coordinator forwards per-node streams in shard-index order
// without materializing the result, so the response memory at the
// coordinator is bounded by the wire batch, not |R|. Errors reuse the
// service status taxonomy; shard-node errors unwrap through RemoteError
// to the same sentinels, so an overloaded shard is a 429 here too.
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", c.handleQuery)
	mux.HandleFunc("/append", c.handleAppend)
	mux.HandleFunc("/stats", c.handleStats)
	mux.HandleFunc("/healthz", c.handleHealthz)
	mux.HandleFunc("/metrics", c.handleMetrics)
	mux.HandleFunc("/debug/trace/", c.handleDebugTrace)
	mux.HandleFunc("/debug/queries", c.handleDebugQueries)
	mux.HandleFunc("/debug/queries/", c.handleDebugQueries)
	return mux
}

// handleQuery is the front door every front end shares (service.ServeQuery)
// over the cluster's cursor: on the scatter route a streamed response body
// is the merge-concatenation of the per-node streams — rows transit the
// coordinator without ever forming a whole-result buffer.
func (c *Cluster) handleQuery(w http.ResponseWriter, r *http.Request) {
	service.ServeQuery(w, r, c, c.Registry())
}

// handleAppend is the coordinator's POST /append route: the same two body
// shapes as the single-engine service (JSON rows, or binary columnar
// frames with ?table=), routed through Cluster.Append so each row lands on
// its owning node under one coordinator-assigned watermark.
func (c *Cluster) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		service.WriteError(w, http.StatusMethodNotAllowed, "request", errors.New("shard: use POST"))
		return
	}
	req, rows, err := service.DecodeAppendBody(r)
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, "request", err)
		return
	}
	resp, err := c.Append(r.Context(), req.Table, rows)
	if err != nil {
		status, kind := service.AppendStatus(err)
		service.WriteError(w, status, kind, err)
		return
	}
	service.WriteJSON(w, http.StatusOK, resp)
}

func (c *Cluster) handleStats(w http.ResponseWriter, r *http.Request) {
	stats, err := c.Stats(r.Context())
	if err != nil {
		service.WriteFailure(w, err)
		return
	}
	service.WriteJSON(w, http.StatusOK, stats)
}

func (c *Cluster) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := service.Health{
		Status:  "ok",
		Version: service.BuildVersion(),
		Codecs:  []string{string(service.CodecBinary), string(service.CodecJSON)},
		Role:    "coordinator",
	}
	if err := c.Health(r.Context()); err != nil {
		h.Status = "degraded: " + err.Error()
		service.WriteJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	service.WriteJSON(w, http.StatusOK, h)
}

// handleMetrics serves the coordinator's Prometheus exposition: its
// Front's families, its routing counters, and per-shard labelled families
// built from the shard snapshots, so one scrape shows cluster skew.
func (c *Cluster) handleMetrics(w http.ResponseWriter, r *http.Request) {
	stats, err := c.Stats(r.Context())
	if err != nil {
		service.WriteFailure(w, err)
		return
	}
	p := &service.PromWriter{}
	c.front.WriteMetrics(p)
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
	service.WriteProcessMetrics(p)
	service.WriteBuildInfo(p)
	p.ServeTo(w)
}

func (c *Cluster) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	service.ServeTraceRing(w, r, c.Traces(), "/debug/trace/")
}

// mergedLiveQueries snapshots the coordinator registry and grafts every
// shard node's in-flight entries under the owning query: node-side stages
// register under the coordinator's trace ID, so matching is by ID. The
// fan-out is best-effort — an unreachable node hides only its own
// subtree, never the coordinator's view. Node entries owned by no listed
// coordinator query (statements sent to a node directly) append at the
// end, so cluster-wide visibility is complete.
func (c *Cluster) mergedLiveQueries(ctx context.Context) []trace.QueryInfo {
	own := c.Registry().Snapshot()
	nodeInfos := make([][]trace.QueryInfo, len(c.shards))
	var wg sync.WaitGroup
	for i, tr := range c.shards {
		wg.Add(1)
		go func(i int, tr Transport) {
			defer wg.Done()
			infos, err := tr.LiveQueries(ctx)
			if err != nil {
				return
			}
			nodeInfos[i] = infos
		}(i, tr)
	}
	wg.Wait()
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
	return append(own, orphans...)
}

// handleDebugQueries serves the coordinator's live query registry:
//
//	GET    /debug/queries      every in-flight query, newest first, each
//	                           with its shard nodes' matching entries
//	                           merged under "nodes"
//	GET    /debug/queries/{id} one query
//	DELETE /debug/queries/{id} kill: fires the stored cancel here and on
//	                           every node holding a stage of the query
func (c *Cluster) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/debug/queries")
	id = strings.Trim(id, "/")
	switch {
	case r.Method == http.MethodGet && id == "":
		service.WriteJSON(w, http.StatusOK, c.mergedLiveQueries(r.Context()))
	case r.Method == http.MethodGet:
		for _, info := range c.mergedLiveQueries(r.Context()) {
			if info.ID == id {
				service.WriteJSON(w, http.StatusOK, info)
				return
			}
		}
		service.WriteError(w, http.StatusNotFound, "request", errors.New("shard: no in-flight query "+id))
	case r.Method == http.MethodDelete && id != "":
		killed := c.Registry().Kill(id)
		// Fan the kill out regardless: a node could hold a stage of a
		// query whose coordinator entry already finished (or that was
		// submitted to the node directly).
		var nodeKilled atomic.Bool
		var wg sync.WaitGroup
		for _, tr := range c.shards {
			wg.Add(1)
			go func(tr Transport) {
				defer wg.Done()
				if ok, err := tr.KillQuery(r.Context(), id); err == nil && ok {
					nodeKilled.Store(true)
				}
			}(tr)
		}
		wg.Wait()
		if !killed && !nodeKilled.Load() {
			service.WriteError(w, http.StatusNotFound, "request", errors.New("shard: no in-flight query "+id))
			return
		}
		service.WriteJSON(w, http.StatusOK, service.KillResponse{ID: id, Killed: true})
	default:
		w.Header().Set("Allow", "GET, DELETE")
		service.WriteError(w, http.StatusMethodNotAllowed, "request", errors.New("shard: GET lists in-flight queries, DELETE /debug/queries/{id} kills one"))
	}
}
