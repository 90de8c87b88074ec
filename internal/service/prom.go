package service

// Prometheus text exposition (version 0.0.4) for the pull-based /metrics
// plane. Hand-rolled — the format is a dozen lines of fmt and the repo
// takes no dependencies — but kept strict enough that promtool parses it:
// every family gets HELP and TYPE, histogram buckets are cumulative and
// end at +Inf, and values are Go's shortest-round-trip floats.

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/pagestore"
	"repro/internal/recycle"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/xsort"
)

// PromWriter accumulates metric families in Prometheus text exposition
// format. The cluster coordinator (internal/shard) reuses it to add
// per-shard labelled families on top of the service families.
type PromWriter struct {
	b bytes.Buffer
}

// Family emits the # HELP / # TYPE preamble for a metric family. Call it
// once per family, before the family's samples.
func (p *PromWriter) Family(name, help, typ string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample emits one sample line; labels is the raw label-pair text (e.g.
// `shard="0"`) or "" for an unlabelled sample.
func (p *PromWriter) Sample(name, labels string, v float64) {
	if labels != "" {
		fmt.Fprintf(&p.b, "%s{%s} %s\n", name, labels, promValue(v))
	} else {
		fmt.Fprintf(&p.b, "%s %s\n", name, promValue(v))
	}
}

// Counter emits a single-sample counter family.
func (p *PromWriter) Counter(name, help string, v float64) {
	p.Family(name, help, "counter")
	p.Sample(name, "", v)
}

// Gauge emits a single-sample gauge family.
func (p *PromWriter) Gauge(name, help string, v float64) {
	p.Family(name, help, "gauge")
	p.Sample(name, "", v)
}

// ServeTo writes the accumulated exposition as an HTTP response.
func (p *PromWriter) ServeTo(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(p.b.Bytes())
}

func promValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteSnapshotMetrics renders one service Snapshot as the windowdb_*
// family set. The coordinator calls it for its own counters and then
// layers per-shard labelled families beside it.
func WriteSnapshotMetrics(p *PromWriter, s Snapshot) {
	p.Counter("windowdb_queries_total", "Queries completed successfully.", float64(s.Queries))
	p.Counter("windowdb_query_failures_total", "Queries completed with an error.", float64(s.Failures))
	p.Counter("windowdb_query_rejected_total", "Queries rejected by admission control (overloaded).", float64(s.Rejected))
	p.Counter("windowdb_streams_aborted_total", "Streamed queries closed before their last row.", float64(s.Aborted))
	// Same counter under the lifecycle plane's canonical name: kills via
	// DELETE /debug/queries/{id} land here too.
	p.Counter("windowdb_queries_aborted_total", "Queries aborted before completion (kills and client disconnects).", float64(s.Aborted))
	p.Counter("windowdb_shuffle_rounds_total", "Shuffle stages executed for cluster coordinators.", float64(s.ShuffleRounds))
	p.Counter("windowdb_appends_total", "Append batches applied (INSERT statements and /append bodies).", float64(s.Appends))
	p.Counter("windowdb_rows_appended_total", "Rows ingested by append batches.", float64(s.RowsAppended))
	p.Counter("windowdb_rows_out_total", "Rows yielded to clients.", float64(s.RowsOut))
	p.Counter("windowdb_blocks_read_total", "Storage blocks read by query execution.", float64(s.BlocksRead))
	p.Counter("windowdb_blocks_written_total", "Storage blocks spilled by query execution.", float64(s.BlocksWritten))
	p.Counter("windowdb_comparisons_total", "Tuple comparisons performed by query execution.", float64(s.Comparisons))

	p.Counter("windowdb_plan_cache_hits_total", "Plan cache hits.", float64(s.Cache.Hits))
	p.Counter("windowdb_plan_cache_misses_total", "Plan cache misses.", float64(s.Cache.Misses))
	p.Counter("windowdb_plan_cache_invalidations_total", "Plan cache entries invalidated by DDL or stats changes.", float64(s.Cache.Invalidations))
	p.Counter("windowdb_plan_cache_evictions_total", "Plan cache LRU evictions.", float64(s.Cache.Evictions))

	p.Counter("windowdb_subplan_cache_hits_total", "Shared-subplan cache hits (completed segment reused).", float64(s.Subplans.Hits))
	p.Counter("windowdb_subplan_cache_misses_total", "Shared-subplan cache misses (query led its own scan).", float64(s.Subplans.Misses))
	p.Counter("windowdb_subplan_cache_attaches_total", "Queries attached to an in-flight shared scan.", float64(s.Subplans.Attaches))
	p.Counter("windowdb_subplan_cache_invalidations_total", "Shared segments retired by schema or data generation changes.", float64(s.Subplans.Invalidations))
	p.Counter("windowdb_subplan_cache_evictions_total", "Shared-subplan cache LRU evictions.", float64(s.Subplans.Evictions))
	p.Counter("windowdb_subplan_cache_fallbacks_total", "Attachers whose shared scan failed and re-executed privately.", float64(s.Subplans.Fallbacks))

	p.Gauge("windowdb_in_flight", "Executions currently holding an admission slot.", float64(s.InFlight))
	p.Gauge("windowdb_in_flight_max", "High-water mark of in-flight executions.", float64(s.MaxInFlight))
	p.Gauge("windowdb_admission_slots", "Admission slots configured.", float64(s.Slots))
	p.Gauge("windowdb_admission_queue_depth", "Executions waiting for an admission slot.", float64(s.QueueDepth))
	p.Gauge("windowdb_live_queries", "In-flight queries in the /debug/queries registry.", float64(s.LiveQueries))
	p.Gauge("windowdb_plan_cache_entries", "Plan cache resident entries.", float64(s.Cache.Size))
	p.Gauge("windowdb_subplan_cache_entries", "Shared-subplan cache resident segments.", float64(s.Subplans.Size))
	p.Gauge("windowdb_uptime_seconds", "Seconds since the service started.", s.UptimeSeconds)
}

// WriteProcessMetrics emits what belongs to the process and not to one
// service in it — the memory that outlives a statement: the spill block
// pool, the runs' workspace (of which the sort workspace is one list) and
// the arena pool. The coordinator writes the same families.
func WriteProcessMetrics(p *PromWriter) {
	allocated, held := pagestore.PoolCounters()
	p.Counter("windowdb_block_pool_allocated_total", "Spill blocks allocated because the process-wide pool had none free.", float64(allocated))
	p.Gauge("windowdb_block_pool_held", "Spill blocks taken from the pool and not yet handed back.", float64(held))
	p.Gauge("windowdb_sort_workspace_bytes", "Merge scratch the idle in-memory sort workspace retains, part of windowdb_workspace_bytes.", float64(xsort.WorkspaceBytes()))
	_, workspace := recycle.Idle()
	p.Gauge("windowdb_workspace_bytes", "Spill files, reorder buckets and arrays, sort tournaments and scratch, and evaluator buffers idle in the free lists runs take their workspace from.", float64(workspace))
	p.Gauge("windowdb_arena_pool_bytes", "Value, vector, header and byte slabs released chains left in the arena pool for the next chain to carve.", float64(storage.ArenaPoolBytes()))
}

// histStride thins the 96 exponential buckets to every 8th boundary in
// the exposition — 12 boundaries plus +Inf spans 1µs to ~2min at 6x
// resolution, plenty for scrape-side quantiles, and cumulative buckets
// make the subset exact rather than lossy.
const histStride = 8

// WriteLatencyHistogram renders the exponential latency histogram as a
// Prometheus cumulative-bucket histogram in seconds.
func WriteLatencyHistogram(p *PromWriter, name string, h latencyHist) {
	p.Family(name, "End-to-end query latency.", "histogram")
	var cum uint64
	next := histStride - 1
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i]
		if i == next {
			p.Sample(name+"_bucket", fmt.Sprintf("le=%q", promValue(histUpper(i).Seconds())), float64(cum))
			next += histStride
		}
	}
	p.Sample(name+"_bucket", `le="+Inf"`, float64(h.total))
	p.Sample(name+"_sum", "", h.sum.Seconds())
	p.Sample(name+"_count", "", float64(h.total))
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	p := &PromWriter{}
	WriteSnapshotMetrics(p, s.Stats())
	WriteProcessMetrics(p)
	WriteBuildInfo(p)
	WriteLatencyHistogram(p, "windowdb_query_duration_seconds", s.metrics.histSnapshot())
	p.ServeTo(w)
}

// WriteBuildInfo emits the standard build-identity gauge — always 1, the
// facts live in the labels. The version is the same debug.ReadBuildInfo
// answer the JSON /healthz reports.
func WriteBuildInfo(p *PromWriter) {
	p.Family("windowdb_build_info", "Build identity of this process; value is always 1.", "gauge")
	p.Sample("windowdb_build_info", fmt.Sprintf("version=%q", BuildVersion()), 1)
}

// ServeTraceRing answers /debug/trace/ requests from a ring: the bare
// prefix lists recent traces newest-first (?limit= bounds the count,
// default 32, capped at the ring's capacity; ?n= is the legacy spelling),
// a trailing {id} returns that trace or 404. Shared with the
// coordinator's debug surface.
func ServeTraceRing(w http.ResponseWriter, r *http.Request, ring *trace.Ring, prefix string) {
	if ring == nil {
		writeError(w, http.StatusNotFound, "request", fmt.Errorf("service: tracing disabled"))
		return
	}
	id := strings.TrimPrefix(r.URL.Path, prefix)
	if id == "" {
		n := 32
		q := r.URL.Query().Get("limit")
		if q == "" {
			q = r.URL.Query().Get("n")
		}
		if q != "" {
			if v, err := strconv.Atoi(q); err == nil && v > 0 {
				n = v
			}
		}
		if n > ring.Cap() {
			n = ring.Cap()
		}
		writeJSON(w, http.StatusOK, ring.Recent(n))
		return
	}
	t := ring.Get(id)
	if t == nil {
		writeError(w, http.StatusNotFound, "request", fmt.Errorf("service: no trace %q in the ring (it holds the most recent %d)", id, ring.Len()))
		return
	}
	writeJSON(w, http.StatusOK, t)
}

func (s *Service) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	ServeTraceRing(w, r, s.Traces(), "/debug/trace/")
}

// KillResponse is the DELETE /debug/queries/{id} JSON body.
type KillResponse struct {
	ID     string `json:"id"`
	Killed bool   `json:"killed"`
}

// ServeQueryRegistry answers /debug/queries requests from a registry: the
// bare prefix GETs every in-flight query newest-first, a trailing {id}
// GETs one entry or DELETEs (kills) it. Shared by the service and the
// coordinator's node-local half (the coordinator's own handler layers the
// shard fan-out on top).
func ServeQueryRegistry(w http.ResponseWriter, r *http.Request, reg *trace.Registry, prefix string) {
	id := strings.TrimPrefix(strings.TrimPrefix(r.URL.Path, prefix), "/")
	if id == "" {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", "GET")
			writeError(w, http.StatusMethodNotAllowed, "request", fmt.Errorf("service: use GET to list queries, DELETE %s/{id} to kill one", prefix))
			return
		}
		infos := reg.Snapshot()
		if infos == nil {
			infos = []trace.QueryInfo{}
		}
		writeJSON(w, http.StatusOK, infos)
		return
	}
	switch r.Method {
	case http.MethodGet:
		e := reg.Get(id)
		if e == nil {
			writeError(w, http.StatusNotFound, "request", fmt.Errorf("service: no in-flight query %q", id))
			return
		}
		writeJSON(w, http.StatusOK, e.Info())
	case http.MethodDelete:
		if !reg.Kill(id) {
			writeError(w, http.StatusNotFound, "request", fmt.Errorf("service: no in-flight query %q", id))
			return
		}
		writeJSON(w, http.StatusOK, KillResponse{ID: id, Killed: true})
	default:
		w.Header().Set("Allow", "GET, DELETE")
		writeError(w, http.StatusMethodNotAllowed, "request", fmt.Errorf("service: use GET or DELETE"))
	}
}

func (s *Service) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	ServeQueryRegistry(w, r, s.reg, "/debug/queries")
}
