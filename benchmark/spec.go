package main

// The benchmark's fixed vocabulary: workload names, end-to-end metric
// names with their units and regression bounds, and the per-layer ladder.
// BENCHMARK.json at the repository root is generated from these tables
// (`bash benchmark/run.sh manifest`) and a test keeps the two equal, so a
// later change is judged by the same names this file fixes.

// metricSpec declares one metric.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the baseline's median by which the metric may
	// worsen before it counts as a regression. Zero on per-layer metrics,
	// which explain a change and are not gated.
	Bound float64 `json:"bound,omitempty"`
}

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// workloadSpecs are the workloads the harness can run, the first
// driverWorkloads of them the ones BENCHMARK.json names.
var workloadSpecs = []workloadSpec{
	{"chain_spill", "Q1-Q9 rank chains at M = 0.85*sqrt(B/2) blocks: the paper's spilling regime, where xsort merges, FS/HS/SS, spill pages and the tuple codec do most of the work"},
	{"frames_inmem", "framed aggregates and navigation functions at M = 256MB: nothing spills, so it bypasses every spill-path change and exercises window frames and sql finalize instead"},
	{"serve_http", "13-statement dashboard mix through service.Client over loopback HTTP with nproc clients: plan/subplan caches, admission, stream codec; CPU-bound so freed CPU shows as throughput"},
	{"cluster_2shard", "scatter Q6 and key-divergent shuffle Q6d over two HTTP shard nodes: shard routing, node-to-node delivery and the slowest-shard wait dominate"},
	{"append_subscribe", "hot-key append batches beside a SUBSCRIBE cursor and periodic full Q6: the only workload where catalog appends, delta maintenance and generation bumps are paid"},
}

// driverWorkloads is how many of workloadSpecs the driver runs. It makes 22
// runs of every workload it is given inside one time limit, and the one
// gated metric that is a time, setup_s, is only as steady as the stretch of
// time a run's set-ups sample: three workloads leave each run room for ten
// set-ups around a 24 s loop, five left room for five around 12 s, and
// between two ten-run sets of those the median set-up time of unchanged code
// moved by up to 36%. The last two workloads stay runnable (--workload, the
// all-workloads mode, `compare`, the tests); the driver does not see them.
const driverWorkloads = 3

// endToEnd is what the driver gates: the metrics of the timed run (tracing
// off) that repeat from run to run on a shared host, reported on every
// workload and never zero.
//
// No wall-clock or CPU-time metric of the loop is among them. The 2-vCPU
// microVM these were fixed on shares its host with other tenants, and for
// tens of seconds to minutes at a time every timing of every workload — CPU
// time and a GOMAXPROCS=1 run included — is 1.3-2x worse, then back. Ten
// runs of one commit then spread 50-100% between quartiles (the driver's
// own check measured that), and no statistic taken inside a run of a minute
// or less removes a slowdown that outlasts the run: medians, trimmed means,
// low quantiles and minima of 12-60 s windows of recorded cycle times all
// spread 12-20%, and dividing by an interleaved calibration kernel removed
// under half of that (README.md has the numbers). The contract caps a bound
// at 25% and wants spreads under a third of it, so the timings are
// measured, printed and judged by `compare` (extended, below), and what the
// driver gates are the costs behind them that do repeat: the memory
// high-water mark, allocation volume and object count per operation (what
// the GC is paid for), and the paper's comparison count. A timing claim
// needs the paired, alternating runs of the choosing-metrics guide, which
// cancel the drift; this gate catches the change that makes every operation
// allocate or compare more. setup_s, which the contract requires, is the
// one time left: the fastest of the run's set-ups.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
	{"alloc_mb_per_op", "MB", lower, 0.03},
	{"allocs_per_op", "count", lower, 0.03},
	{"comparisons_per_op", "count", lower, 0.02},
}

// extended are the end-to-end metrics the driver cannot gate: the timings
// (too unsteady on a shared host for any bound the contract allows, see
// above) and the metrics that are zero or undefined on some workload (no
// spill, no appends, no failures). The timed run measures them all and
// `compare` judges them with the bounds below; the traced run reports them
// again under the same names, from its untraced cycles, and perLayer ends
// with them so that they appear in BENCHMARK.json.
var extended = []metricSpec{
	{"query_ms_p50", "ms", lower, 0.25},
	{"query_ms_p90", "ms", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"cpu_ms_per_op", "ms", lower, 0.25},
	{"blocks_per_op", "count", lower, 0.01},
	{"failed_frac", "ratio", lower, 0},
	{"append_ms_p50", "ms", lower, 0.25},
	{"append_ms_p90", "ms", lower, 0.25},
	{"ingest_rows_per_s", "1/s", higher, 0.25},
}

// ladderSpecs is the ladder, outside-in is the reverse of this order: one
// block per package, measured by the traced run through exported entry
// points on the workload's own fixture. A metric whose layer the workload
// does not reach reads 0.
var ladderSpecs = []metricSpec{
	{Name: "storage.value_bytes", Unit: "B", Better: lower},
	{Name: "storage.compare_ns", Unit: "ns", Better: lower},
	{Name: "storage.encode_ns_per_tuple", Unit: "ns", Better: lower},
	{Name: "storage.decode_ns_per_tuple", Unit: "ns", Better: lower},
	{Name: "storage.hash_ns", Unit: "ns", Better: lower},

	{Name: "xsort.inmem_sort_ms", Unit: "ms", Better: lower},
	{Name: "xsort.external_sort_ms", Unit: "ms", Better: lower},
	{Name: "xsort.comparisons", Unit: "count", Better: lower},
	{Name: "xsort.initial_runs", Unit: "count", Better: lower},
	{Name: "xsort.merge_passes", Unit: "count", Better: lower},
	{Name: "xsort.alloc_mb", Unit: "MB", Better: lower},

	{Name: "spill.write_ns_per_tuple", Unit: "ns", Better: lower},
	{Name: "spill.read_ns_per_tuple", Unit: "ns", Better: lower},
	{Name: "pagestore.blocks_per_mb", Unit: "count", Better: lower},

	{Name: "reorder.fs_ms", Unit: "ms", Better: lower},
	{Name: "reorder.hs_ms", Unit: "ms", Better: lower},
	{Name: "reorder.ss_ms", Unit: "ms", Better: lower},
	{Name: "reorder.fs_blocks", Unit: "count", Better: lower},
	{Name: "reorder.hs_blocks", Unit: "count", Better: lower},
	{Name: "reorder.ss_blocks", Unit: "count", Better: lower},
	{Name: "reorder.hs_spilled_buckets", Unit: "count", Better: lower},
	{Name: "reorder.ss_units", Unit: "count", Better: lower},

	{Name: "window.rank_ns_per_row", Unit: "ns", Better: lower},
	{Name: "window.rows_frame_ns_per_row", Unit: "ns", Better: lower},
	{Name: "window.range_frame_ns_per_row", Unit: "ns", Better: lower},
	{Name: "window.minmax_frame_ns_per_row", Unit: "ns", Better: lower},
	{Name: "window.leadlag_ns_per_row", Unit: "ns", Better: lower},
	{Name: "window.alloc_b_per_row", Unit: "B", Better: lower},
	{Name: "window.eval_ms", Unit: "ms", Better: lower},

	{Name: "core.plan_us_q6", Unit: "us", Better: lower},
	{Name: "core.plan_us_q9", Unit: "us", Better: lower},

	{Name: "exec.run_ms", Unit: "ms", Better: lower},
	{Name: "exec.self_ms", Unit: "ms", Better: lower},
	{Name: "exec.alloc_mb_per_op", Unit: "MB", Better: lower},
	{Name: "exec.allocs_per_op", Unit: "count", Better: lower},

	{Name: "sql.parse_us", Unit: "us", Better: lower},
	{Name: "sql.canonical_us", Unit: "us", Better: lower},
	{Name: "sql.prepare_us", Unit: "us", Better: lower},
	{Name: "sql.finalize_ms", Unit: "ms", Better: lower},

	{Name: "engine.query_ms", Unit: "ms", Better: lower},
	{Name: "engine.cursor_self_ms", Unit: "ms", Better: lower},

	{Name: "service.self_ms", Unit: "ms", Better: lower},
	{Name: "service.http_self_ms", Unit: "ms", Better: lower},
	{Name: "service.plan_cache_hit_rate", Unit: "ratio", Better: higher},
	{Name: "service.subplan_shared_rate", Unit: "ratio", Better: higher},
	{Name: "service.queue_ms_p50", Unit: "ms", Better: lower},
	{Name: "service.max_in_flight", Unit: "count", Better: higher},

	{Name: "stream.encode_ns_per_row", Unit: "ns", Better: lower},
	{Name: "stream.decode_ns_per_row", Unit: "ns", Better: lower},
	{Name: "stream.wire_bytes_per_row", Unit: "B", Better: lower},

	{Name: "shard.scatter_self_ms", Unit: "ms", Better: lower},
	{Name: "shard.shuffle_self_ms", Unit: "ms", Better: lower},
	{Name: "shard.shuffle_imbalance", Unit: "ratio", Better: lower},
	{Name: "shard.deliver_ms", Unit: "ms", Better: lower},
	{Name: "shard.slowest_node_ms", Unit: "ms", Better: lower},

	{Name: "catalog.append_us_per_row", Unit: "us", Better: lower},
	{Name: "delta.bootstrap_ms", Unit: "ms", Better: lower},
	{Name: "delta.apply_ms_per_batch", Unit: "ms", Better: lower},
	{Name: "delta.scanned_frac", Unit: "ratio", Better: lower},
	{Name: "delta.publish_lag_ms", Unit: "ms", Better: lower},

	{Name: "ladder.top_ms", Unit: "ms", Better: lower},
	{Name: "ladder.unattributed_frac", Unit: "ratio", Better: lower},
	{Name: "ladder.trace_overhead_frac", Unit: "ratio", Better: lower},
}

// perLayer is what a traced run reports: the ladder, then the extended
// metrics without their bounds (per-layer metrics are not gated).
var perLayer = func() []metricSpec {
	out := append([]metricSpec{}, ladderSpecs...)
	for _, m := range extended {
		m.Bound = 0
		out = append(out, m)
	}
	return out
}()

// runSeconds is the length of one timed run; the driver passes it back as
// --seconds.
const runSeconds = 24

// manifest is the shape of BENCHMARK.json. End-to-end entries always carry
// a (non-zero) bound; per-layer entries have none and omit the key.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func buildManifest() manifest {
	return manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs[:driverWorkloads],
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
