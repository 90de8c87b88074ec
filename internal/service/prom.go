package service

// Prometheus text exposition (version 0.0.4) for the pull-based /metrics
// plane. Hand-rolled — the format is a dozen lines of fmt and the repo
// takes no dependencies — but kept strict enough that promtool parses it:
// every family gets HELP and TYPE, histogram buckets are cumulative and
// end at +Inf, and values are Go's shortest-round-trip floats.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/pagestore"
	"repro/internal/recycle"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/xsort"
)

// PromWriter accumulates metric families in Prometheus text exposition
// format. A Backend writes its own families with it (Backend.WriteMetrics):
// a service its Snapshot's, a cluster coordinator its routing counters and
// per-shard labelled families.
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

// serveTo writes the accumulated exposition as an HTTP response.
func (p *PromWriter) serveTo(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(p.b.Bytes())
}

func promValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeSnapshotMetrics renders the windowdb_* families of a service
// Snapshot that are a service's own — admission, shuffle rounds, appends,
// execution work, the shared-subplan cache. The statement outcome, plan
// cache and registry families are the Front's (Front.writeMetrics), which
// every front end writes.
func writeSnapshotMetrics(p *PromWriter, s Snapshot) {
	p.Counter("windowdb_query_rejected_total", "Queries rejected by admission control (overloaded).", float64(s.Rejected))
	p.Counter("windowdb_shuffle_rounds_total", "Shuffle stages executed for cluster coordinators.", float64(s.ShuffleRounds))
	p.Counter("windowdb_appends_total", "Append batches applied (INSERT statements and /append bodies).", float64(s.Appends))
	p.Counter("windowdb_rows_appended_total", "Rows ingested by append batches.", float64(s.RowsAppended))
	p.Counter("windowdb_rows_out_total", "Rows yielded to clients.", float64(s.RowsOut))
	p.Counter("windowdb_blocks_read_total", "Storage blocks read by query execution.", float64(s.BlocksRead))
	p.Counter("windowdb_blocks_written_total", "Storage blocks spilled by query execution.", float64(s.BlocksWritten))
	p.Counter("windowdb_comparisons_total", "Tuple comparisons performed by query execution.", float64(s.Comparisons))

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
	p.Gauge("windowdb_subplan_cache_entries", "Shared-subplan cache resident segments.", float64(s.Subplans.Size))
	p.Gauge("windowdb_uptime_seconds", "Seconds since the service started.", s.UptimeSeconds)
}

// writeProcessMetrics emits what belongs to the process and not to one
// service in it — the memory that outlives a statement: the spill block
// pool, the runs' workspace (of which the sort workspace is one list) and
// the arena pool. Every front end writes them.
func writeProcessMetrics(p *PromWriter) {
	allocated, held := pagestore.PoolCounters()
	p.Counter("windowdb_block_pool_allocated_total", "Spill blocks allocated because the process-wide pool had none free.", float64(allocated))
	p.Gauge("windowdb_block_pool_held", "Spill blocks taken from the pool and not yet handed back.", float64(held))
	p.Gauge("windowdb_sort_workspace_bytes", "Merge scratch the idle in-memory sort workspace retains, part of windowdb_workspace_bytes.", float64(xsort.WorkspaceBytes()))
	_, workspace := recycle.Idle()
	p.Gauge("windowdb_workspace_bytes", "Spill files, reorder buckets and arrays, sort tournaments and scratch, evaluator buffers, and wire frame and line buffers idle in the free lists runs and streams take their workspace from.", float64(workspace))
	p.Gauge("windowdb_arena_pool_bytes", "Value, vector, header and byte slabs released chains left in the arena pool for the next chain to carve.", float64(storage.ArenaPoolBytes()))
}

// histStride thins the 96 exponential buckets to every 8th boundary in
// the exposition — 12 boundaries plus +Inf spans 1µs to ~2min at 6x
// resolution, plenty for scrape-side quantiles, and cumulative buckets
// make the subset exact rather than lossy.
const histStride = 8

// writeLatencyHistogram renders the exponential latency histogram as a
// Prometheus cumulative-bucket histogram in seconds.
func writeLatencyHistogram(p *PromWriter, name string, h latencyHist) {
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

// WriteMetrics writes the service's own /metrics families: its Snapshot's
// (writeSnapshotMetrics) and the latency histogram.
func (s *Service) WriteMetrics(_ context.Context, p *PromWriter) error {
	writeSnapshotMetrics(p, s.Stats())
	writeLatencyHistogram(p, "windowdb_query_duration_seconds", s.metrics.histSnapshot())
	return nil
}

// writeBuildInfo emits the standard build-identity gauge — always 1, the
// facts live in the labels. The version is the same debug.ReadBuildInfo
// answer the JSON /healthz reports.
func writeBuildInfo(p *PromWriter) {
	p.Family("windowdb_build_info", "Build identity of this process; value is always 1.", "gauge")
	p.Sample("windowdb_build_info", fmt.Sprintf("version=%q", buildVersion()), 1)
}

// serveTraces answers GET /debug/trace/[{id}] from ring: without an {id},
// the recent traces newest-first (?limit= bounds the count, default 32,
// capped at the ring's capacity; ?n= is the legacy spelling, and an empty
// ring is the empty list), with one, that trace or 404. With retention off
// (a nil ring) both are 404s.
func serveTraces(w http.ResponseWriter, r *http.Request, ring *trace.Ring) {
	if ring == nil {
		writeError(w, http.StatusNotFound, "request", fmt.Errorf("service: tracing disabled"))
		return
	}
	id := r.PathValue("id")
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
		list := ring.Recent(n)
		if list == nil {
			list = []*trace.Trace{}
		}
		writeJSON(w, http.StatusOK, list)
		return
	}
	t := ring.Get(id)
	if t == nil {
		writeError(w, http.StatusNotFound, "request", fmt.Errorf("service: no trace %q in the ring (it holds the most recent %d)", id, ring.Len()))
		return
	}
	writeJSON(w, http.StatusOK, t)
}

// KillResponse is the DELETE /debug/queries/{id} JSON body.
type KillResponse struct {
	ID     string `json:"id"`
	Killed bool   `json:"killed"`
}
