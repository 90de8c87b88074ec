package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"

	windowdb "repro"
	"repro/internal/service"
)

// runConfig is one invocation: one workload, timed or traced.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Sizes    sizes
	OutDir   string // trace and result files; "" writes none
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value, where that is
	// meaningful (latency percentiles, medians of replays).
	N int `json:"n,omitempty"`
}

// result is everything one invocation reports; it is written to
// <out>/result-<workload>-<timed|traced>.json, and its Metrics restricted
// to the manifest's names are the contract line.
type result struct {
	Workload string  `json:"workload"`
	Traced   bool    `json:"traced"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Sizes    sizes   `json:"sizes"`
	Fixture  struct {
		Rows int    `json:"rows"`
		Hash string `json:"hash"`
	} `json:"fixture"`
	Env struct {
		NProc      int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
		Commit     string `json:"commit"`
	} `json:"env"`
	Correct bool `json:"correct"`
	tally
	Metrics map[string]metricValue `json:"metrics"`
	// CycleMs is the wall time of every cycle of the measured loop, in run
	// order: how steady the machine was while the run was taken.
	CycleMs   []float64 `json:"cycle_ms,omitempty"`
	TraceFile string    `json:"trace_file,omitempty"`
}

// commit is the revision the binary was built from; run.sh sets it with
// -ldflags when the checkout is a git repository.
var commit = "unknown"

func newResult(cfg runConfig) *result {
	r := &result{Workload: cfg.Workload, Traced: cfg.Trace, Seed: cfg.Seed, Seconds: cfg.Seconds, Sizes: cfg.Sizes,
		Metrics: map[string]metricValue{}}
	r.Env.NProc = runtime.NumCPU()
	r.Env.GOMAXPROCS = runtime.GOMAXPROCS(0)
	r.Env.GoVersion = runtime.Version()
	r.Env.Commit = commit
	return r
}

func (r *result) set(name, unit string, v float64, n int) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit, N: n}
}

// tally counts operations and keeps the first few failures.
type tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

// judge counts the operations in samples, records the failed ones.
func (t *tally) judge(exp *expectations, samples []sample) {
	for _, sm := range samples {
		t.Attempted++
		if why := exp.failure(sm); why != "" {
			t.Failed++
			if len(t.Failures) < 5 {
				t.Failures = append(t.Failures, fmt.Sprintf("op %d: %s", sm.Seq, why))
			}
		}
	}
}

// groundwork is what surrounds the measured loop: the reference pass, the
// set-up times and the verdicts on the warm-up rounds. A timed run has its
// reference pass and the set-ups that precede the loop done by a child
// process (the `groundwork` subcommand prints this as JSON) and brings up
// only the one system it measures, so that its peak memory is one system
// plus the workload and not what the earlier set-ups left behind.
type groundwork struct {
	Expect *expectations `json:"expect"`
	SetupS []float64     `json:"setup_s"`
	tally
	FixtureRows int    `json:"fixture_rows"`
	FixtureHash string `json:"fixture_hash"`
}

// bringUp sets the workload's system up — fixture generation, registration,
// server start and one checked warm-up round — and adds the time that took
// to g. The first call on an empty g also runs the reference pass, which is
// not part of the set-up time.
func bringUp(ctx context.Context, cfg runConfig, g *groundwork) (*sut, error) {
	start := time.Now()
	s, err := setup(ctx, cfg.Workload, cfg.Sizes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	built := time.Since(start)
	if g.Expect == nil {
		if g.Expect, err = computeExpected(ctx, s); err != nil {
			s.close()
			return nil, err
		}
		ws := s.tables["web_sales"]
		g.FixtureRows, g.FixtureHash = ws.Len(), fmt.Sprintf("%016x", tableHash(ws))
	}
	if s.app != nil {
		s.app.exp = g.Expect.App
	}
	warm := s.run(ctx, time.Time{}, 1, true)
	g.SetupS = append(g.SetupS, (built + warm.wall).Seconds())
	g.judge(g.Expect, warm.samples)
	return s, nil
}

// layGroundwork runs the reference pass and reps set-ups, closing each.
func layGroundwork(ctx context.Context, cfg runConfig, reps int) (*groundwork, error) {
	g := &groundwork{}
	for i := 0; i < reps; i++ {
		s, err := bringUp(ctx, cfg, g)
		if err != nil {
			return nil, err
		}
		s.close()
	}
	return g, nil
}

// groundworkInChild has a child process of this binary lay the groundwork
// and waits for it to end.
func groundworkInChild(ctx context.Context, cfg runConfig) (*groundwork, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "groundwork", "--workload", cfg.Workload, "--seed", strconv.FormatInt(cfg.Seed, 10))
	cmd.Stderr = os.Stderr
	data, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("groundwork process: %w", err)
	}
	g := &groundwork{}
	if err := json.Unmarshal(data, g); err != nil {
		return nil, fmt.Errorf("groundwork process: %w", err)
	}
	return g, nil
}

// adopt takes over what the groundwork established.
func (r *result) adopt(g *groundwork) {
	r.tally = g.tally
	r.Fixture.Rows, r.Fixture.Hash = g.FixtureRows, g.FixtureHash
}

// rusage reports the process's user+system CPU time so far, in
// milliseconds, and its peak resident set size.
func rusage() (cpuMs, maxRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1000 + float64(t.Usec)/1000 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// loadMetrics reports what a loop of operations cost — the part of the
// end-to-end vocabulary both the timed and the traced run produce. Counts
// are totals over operations. Throughput and CPU time come from the median
// cycle, so that a burst of machine noise inside the run does not move
// them; latency percentiles are taken over every operation of the loop.
func (r *result) loadMetrics(l loop, batchRows int) {
	ops := float64(len(l.samples))
	var blocks, cmps int64
	appendsPerCycle := 0
	for _, sm := range l.samples {
		blocks += sm.Blocks
		cmps += sm.Cmps
		if sm.Kind == opAppend && sm.Seq < l.per {
			appendsPerCycle++
		}
	}
	r.CycleMs = l.wallMs
	cycleS := median(l.wallMs) / 1000
	r.set("blocks_per_op", "count", float64(blocks)/ops, len(l.samples))
	r.set("comparisons_per_op", "count", float64(cmps)/ops, len(l.samples))
	r.set("ops_per_s", "1/s", float64(l.per)/cycleS, len(l.samples))
	r.set("cpu_ms_per_op", "ms", median(l.cpuMs)/float64(l.per), len(l.samples))
	r.set("ingest_rows_per_s", "1/s", float64(appendsPerCycle*batchRows)/cycleS, appendsPerCycle*len(l.wallMs))
	// Percentiles are nearest-rank over the latencies of the whole loop.
	queries, appends := l.latencies(opQuery), l.latencies(opAppend)
	r.set("query_ms_p50", "ms", percentile(queries, 50), len(queries))
	r.set("query_ms_p90", "ms", percentile(queries, 90), len(queries))
	r.set("append_ms_p50", "ms", percentile(appends, 50), len(appends))
	r.set("append_ms_p90", "ms", percentile(appends, 90), len(appends))
}

// runTimed is the --trace 0 invocation: on top of groundwork laid
// elsewhere, bring up the one system to measure and run the closed loop
// for cfg.Seconds with tracing off. The run's remaining set-ups follow the
// loop (peak memory has been read by then), so that they span the whole
// invocation; setup_s is the fastest of them all. Set-up does a fixed
// amount of work and a busy host only ever adds to its time, so the
// fastest of several set-ups taken seconds apart is the one least
// disturbed.
func runTimed(ctx context.Context, cfg runConfig, g *groundwork) (*result, error) {
	r := newResult(cfg)
	s, err := bringUp(ctx, cfg, g)
	if err != nil {
		return nil, err
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l := s.run(ctx, time.Now().Add(time.Duration(cfg.Seconds*float64(time.Second))), 0, false)
	runtime.ReadMemStats(&after)
	_, rss := rusage()
	s.close()

	for len(g.SetupS) < cfg.Sizes.SetupReps {
		again, err := bringUp(ctx, cfg, g)
		if err != nil {
			return nil, err
		}
		again.close()
	}
	r.adopt(g)
	r.judge(g.Expect, l.samples)
	r.set("setup_s", "s", slices.Min(g.SetupS), len(g.SetupS))

	r.loadMetrics(l, cfg.Sizes.BatchRows)
	r.set("peak_rss_mb", "MB", rss, 1)
	// Everything the process allocated during the loop, the harness's own
	// samples and client-side decoding included, over the operations it ran.
	ops := len(l.samples)
	r.set("alloc_mb_per_op", "MB", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/float64(ops), ops)
	r.set("allocs_per_op", "count", float64(after.Mallocs-before.Mallocs)/float64(ops), ops)
	r.set("failed_frac", "ratio", float64(r.Failed)/float64(r.Attempted), r.Attempted)
	r.Correct = r.Failed == 0
	return r, nil
}

// runTraced is the --trace 1 invocation: one set-up, the workload replayed
// untraced and traced in alternating cycles for cfg.Seconds, at least
// LadderReps of each (their difference is the tracing overhead), then the
// rungs beneath the workload's queries and the packages beneath the
// executor, each a median of LadderReps replays.
func runTraced(ctx context.Context, cfg runConfig) (*result, error) {
	r := newResult(cfg)
	g := &groundwork{}
	s, err := bringUp(ctx, cfg, g)
	if err != nil {
		return nil, err
	}
	r.adopt(g)
	defer s.close()
	reps := cfg.Sizes.LadderReps
	tr := newTracer()
	out := layers{}

	// Untraced and traced cycles alternate, so a slow phase of the machine
	// lands on both sides of the overhead comparison.
	if s.svc != nil {
		s.svc.ResetMaxInFlight()
	}
	before := s.serviceStats()
	var plain, tracedLoop loop
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for c := 0; c < reps || time.Now().Before(deadline); c++ {
		plain.extend(s.run(ctx, time.Time{}, 1, false))
		tracedLoop.extend(s.run(ctx, time.Time{}, 1, true))
	}
	after := s.serviceStats()
	traced := tracedLoop.samples
	r.judge(g.Expect, plain.samples)
	r.judge(g.Expect, traced)
	top := s.topRung()
	for _, sm := range traced {
		tr.add(top, "", s.stmtID(sm), sm.Seq/s.roundOps(), sm.Start, sm.Ms, sm.Public)
	}
	out["ladder.trace_overhead_frac"] = (median(tracedLoop.wallMs) - median(plain.wallMs)) / median(plain.wallMs)
	out["ladder.top_ms"] = plain.perStatementMedian()
	r.set("ladder.trace_overhead_frac", "ratio", out["ladder.trace_overhead_frac"], len(plain.wallMs))
	r.set("ladder.top_ms", "ms", out["ladder.top_ms"], len(plain.wallMs))

	// The extended end-to-end metrics, timings among them, come from the
	// untraced cycles: end-to-end numbers are measured with tracing off.
	r.loadMetrics(plain, cfg.Sizes.BatchRows)

	var ladder *rung
	switch {
	case s.cluster != nil:
		shardLayers(traced, out)
		out["shard.shuffle_imbalance"] = s.cluster.ShuffleImbalance()
		ladder = newRung(top, out["ladder.top_ms"], newRung("shard.slowest_node", out["shard.slowest_node_ms"]))
	default:
		eng, stmts := s.eng, s.stmts
		if s.app != nil {
			// The full Q6 runs against a table that grows through the
			// epoch; measure its rungs at the middle query point.
			if eng, err = s.app.engineAt(s.sz.EpochOps / 2); err != nil {
				return nil, err
			}
		}
		var svc windowdb.Queryer
		if s.svc != nil {
			svc = s.svc
		}
		if err := engineLadder(ctx, eng, stmts, svc, reps, tr, out); err != nil {
			return nil, err
		}
		run := newRung("exec.run", out["exec.run_ms"],
			newRung("reorder.fs", out["reorder.fs_ms"]), newRung("reorder.hs", out["reorder.hs_ms"]),
			newRung("reorder.ss", out["reorder.ss_ms"]), newRung("window.evaluate", out["window.eval_ms"]))
		execute := newRung("sql.execute", out["sql.execute_ms"], run)
		ladder = newRung("windowdb.query", out["engine.query_ms"], newRung("sql.prepare", out["sql.prepare_us"]/1000), execute)
		out["exec.self_ms"] = run.SelfMs
		out["sql.finalize_ms"] = execute.SelfMs
		out["engine.cursor_self_ms"] = ladder.SelfMs
		if s.svc != nil {
			svcRung := newRung("service.query", out["service.query_ms"], ladder)
			ladder = newRung(top, out["ladder.top_ms"], svcRung, newRung("stream.codec", out["stream.codec_ms"]))
			out["service.self_ms"] = svcRung.SelfMs
			out["service.http_self_ms"] = ladder.SelfMs
			serviceCounters(before, after, traced, out)
		}
	}
	out["ladder.unattributed_frac"] = ladder.unattributed()

	// The packages beneath the executor, on this workload's fixture.
	ref := referenceEngine(s.tables)
	entry, err := ref.Stats("web_sales")
	if err != nil {
		return nil, err
	}
	if err := microLayers(s.tables["web_sales"], entry, reps, out); err != nil {
		return nil, err
	}
	first, err := ref.Query(s.stmts[0].SQL)
	if err != nil {
		return nil, err
	}
	if out["stream.encode_ns_per_row"], out["stream.decode_ns_per_row"], out["stream.wire_bytes_per_row"], err =
		codecLayers(first.Table.Rows, reps); err != nil {
		return nil, err
	}

	if s.app != nil {
		appendLayers(traced, g.Expect.App, cfg.Sizes.BatchRows, out)
	}

	r.set("failed_frac", "ratio", float64(r.Failed)/float64(r.Attempted), r.Attempted)
	for _, spec := range perLayer {
		if _, done := r.Metrics[spec.Name]; !done {
			r.set(spec.Name, spec.Unit, out[spec.Name], reps)
		}
	}
	r.Correct = r.Failed == 0
	if cfg.OutDir != "" {
		if r.TraceFile, err = tr.write(cfg.OutDir, cfg.Workload, cfg.Seed, ladder); err != nil {
			return nil, fmt.Errorf("trace file: %w", err)
		}
	}
	return r, nil
}

// serviceCounters reads what the service already counts, over the traced
// loop: admission queueing, the in-flight high-water mark and the two
// caches' hit rates.
func serviceCounters(before, after service.Snapshot, traced []sample, out layers) {
	var queued []float64
	for _, sm := range traced {
		queued = append(queued, sm.Queued)
	}
	out["service.queue_ms_p50"] = median(queued)
	out["service.max_in_flight"] = float64(after.MaxInFlight)
	if d := (after.Cache.Hits + after.Cache.Misses) - (before.Cache.Hits + before.Cache.Misses); d > 0 {
		out["service.plan_cache_hit_rate"] = float64(after.Cache.Hits-before.Cache.Hits) / float64(d)
	}
	shared := (after.Subplans.Hits + after.Subplans.Attaches) - (before.Subplans.Hits + before.Subplans.Attaches)
	if d := shared + after.Subplans.Misses - before.Subplans.Misses; d > 0 {
		out["service.subplan_shared_rate"] = float64(shared) / float64(d)
	}
}

// appendLayers splits the append → delta latency: the Engine.Append call,
// the maintainer's Apply (timed directly in the reference pass), and what
// remains — publishing the batch to the subscriber and reading its rows.
func appendLayers(traced []sample, exp *appendExpect, batchRows int, out layers) {
	var call, appends []float64
	for _, sm := range traced {
		if sm.Kind == opAppend {
			call, appends = append(call, sm.CallMs), append(appends, sm.Ms)
		}
	}
	out["catalog.append_us_per_row"] = median(call) * 1000 / float64(batchRows)
	out["delta.bootstrap_ms"] = exp.BootstrapMs
	out["delta.apply_ms_per_batch"] = median(exp.ApplyMs)
	out["delta.scanned_frac"] = exp.ScannedFrac
	out["delta.publish_lag_ms"] = median(appends) - median(call) - median(exp.ApplyMs)
}

// writeResult stores the full result beside the trace files.
func writeResult(dir string, r *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "timed"
	if r.Traced {
		mode = "traced"
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result-"+r.Workload+"-"+mode+".json"), data, 0o644)
}

// contractLine is the last line of standard output: exactly the keys the
// benchmark contract names, with the end-to-end metrics of a timed run or
// the per-layer metrics of a traced one.
func contractLine(r *result) string {
	names := endToEnd
	if r.Traced {
		names = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for _, spec := range names {
		m := r.Metrics[spec.Name]
		line.Metrics[spec.Name] = mv{m.Value, spec.Unit}
	}
	data, _ := json.Marshal(line) // plain numbers, strings and bools cannot fail to marshal
	return string(data)
}

// report prints the human-readable form: provenance, then every metric by
// name with its unit and sample count.
func report(w io.Writer, r *result) {
	mode := "timed (tracing off)"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s  %s  seed %d  %.0fs\n", r.Workload, mode, r.Seed, r.Seconds)
	fmt.Fprintf(w, "fixture web_sales %d rows hash %s  sizes %+v\n", r.Fixture.Rows, r.Fixture.Hash, r.Sizes)
	fmt.Fprintf(w, "nproc %d  GOMAXPROCS %d  %s  commit %s\n", r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Commit)
	specs := append(append([]metricSpec{}, endToEnd...), extended...)
	if r.Traced {
		specs = perLayer
	}
	for _, spec := range specs {
		m, ok := r.Metrics[spec.Name]
		if !ok || (m.N == 0 && m.Value == 0) {
			continue // not measured on this workload
		}
		note := ""
		if p := supportedPercentile(m.N); (spec.Name == "query_ms_p90" || spec.Name == "append_ms_p90") && m.N > 0 && p < 90 {
			note = fmt.Sprintf("  (under-sampled: %d samples support p%d)", m.N, p)
		}
		fmt.Fprintf(w, "  %-32s %14.4f %-6s n=%d%s\n", spec.Name, m.Value, spec.Unit, m.N, note)
	}
	if asc := sorted(r.CycleMs); len(asc) > 0 {
		fmt.Fprintf(w, "cycles %d: wall ms min %.1f  q1 %.1f  median %.1f  q3 %.1f  max %.1f\n", len(asc),
			asc[0], percentile(asc, 25), percentile(asc, 50), percentile(asc, 75), asc[len(asc)-1])
	}
	fmt.Fprintf(w, "operations %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "trace written to %s\n", r.TraceFile)
	}
}
