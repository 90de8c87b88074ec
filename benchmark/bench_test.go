package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestSupportedPercentile(t *testing.T) {
	// The highest reportable percentile with at least ten samples beyond it.
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99},
	} {
		if got := supportedPercentile(tc.n); got != tc.want {
			t.Errorf("supportedPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {100, 10}, {1, 1}} {
		if got := percentile(asc, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty input must report 0")
	}
}

// The driver takes spreads from Python's statistics.quantiles(values, n=4);
// these are that function's outputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestRungSelfTime(t *testing.T) {
	run := newRung("exec.run", 80, newRung("reorder.fs", 50), newRung("window.evaluate", 20))
	execute := newRung("sql.execute", 90, run)
	top := newRung("windowdb.query", 100, newRung("sql.prepare", 1), execute)
	for _, tc := range []struct {
		r    *rung
		want float64
	}{{run, 10}, {execute, 10}, {top, 9}} {
		if math.Abs(tc.r.SelfMs-tc.want) > 1e-9 {
			t.Errorf("%s self = %v, want %v", tc.r.Name, tc.r.SelfMs, tc.want)
		}
	}
	if got := top.unattributed(); math.Abs(got-0.09) > 1e-9 {
		t.Errorf("unattributed = %v, want 0.09", got)
	}
	// Rungs that cost more on their own than the call above them (a cache
	// saved the work) leave a negative self time, reported as measured.
	if cached := newRung("service.query", 30, newRung("windowdb.query", 45)); cached.SelfMs != -15 {
		t.Errorf("cached self = %v, want -15", cached.SelfMs)
	}
	if (*rung)(nil).unattributed() != 0 || newRung("empty", 0).unattributed() != 0 {
		t.Error("an absent or empty rung has nothing unattributed")
	}
}

func TestJudgeRow(t *testing.T) {
	lat := metricSpec{"latency", "ms", lower, 0.10}
	qps := metricSpec{"throughput", "1/s", higher, 0.10}
	failed := metricSpec{"failed_frac", "ratio", lower, 0}
	steady := []float64{100, 100, 101, 99, 100, 100, 100, 101, 99, 100}
	for _, tc := range []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"same", lat, steady, steady, verdictOK},
		{"within the bound", lat, steady, scale(steady, 1.08), verdictOK},
		{"past the bound", lat, steady, scale(steady, 1.12), verdictRegressed},
		{"faster is never a regression", lat, steady, scale(steady, 0.5), verdictOK},
		{"throughput falls past the bound", qps, steady, scale(steady, 0.85), verdictRegressed},
		{"throughput rises", qps, steady, scale(steady, 1.5), verdictOK},
		{"spread wider than the bound", lat, []float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100}, steady, verdictUnresolved},
		{"regression beats a wide spread", lat, []float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100}, scale(steady, 1.5), verdictRegressed},
		{"no failures on either side", failed, []float64{0, 0, 0}, []float64{0, 0, 0}, verdictOK},
		{"any new failure", failed, []float64{0, 0, 0}, []float64{0.01, 0.01, 0.01}, verdictRegressed},
	} {
		if got := judgeRow(tc.spec, tc.a, tc.b); got.Verdict != tc.want {
			t.Errorf("%s: verdict %q (worse %.3f, spread %.3f), want %q", tc.name, got.Verdict, got.Worse, got.Spread, tc.want)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestCompareRefusesDifferentMeasurements(t *testing.T) {
	mk := func(hash string, nproc, rows int) *resultSet {
		r := &result{Workload: "chain_spill", Sizes: sizes{Rows: rows}, Metrics: map[string]metricValue{
			"query_ms_p50": {Value: 100, Unit: "ms", N: 100}}}
		r.Fixture.Hash, r.Fixture.Rows, r.Env.NProc, r.Env.GOMAXPROCS = hash, rows, nproc, nproc
		return &resultSet{Runs: []*result{r}}
	}
	base := mk("aa", 2, 16000)
	rows, err := compareSets(base, mk("aa", 2, 16000))
	if err != nil || len(rows) != 1 || rows[0].Verdict != verdictOK {
		t.Fatalf("equal sets: rows %v, err %v", rows, err)
	}
	for name, other := range map[string]*resultSet{
		"fixture hash": mk("bb", 2, 16000), "nproc": mk("aa", 4, 16000), "sizes": mk("aa", 2, 40000),
	} {
		if _, err := compareSets(base, other); err == nil {
			t.Errorf("different %s: compare did not refuse", name)
		}
	}
}

// Two runs joined by extend must read as one: operations numbered 0..n-1,
// so every position of the cycle keeps its own samples.
func TestLoopExtend(t *testing.T) {
	for _, per := range []int{2, 6, 7} {
		cycle := func() loop {
			l := loop{per: per, wallMs: []float64{1}, cpuMs: []float64{1}}
			for i := 0; i < per; i++ {
				l.samples = append(l.samples, sample{Seq: i, Ms: float64(10 * (i + 1))})
			}
			return l
		}
		var l loop
		for c := 0; c < 3; c++ {
			l.extend(cycle())
		}
		for i, sm := range l.samples {
			if sm.Seq != i {
				t.Fatalf("per %d: sample %d has Seq %d", per, i, sm.Seq)
			}
		}
		// Position i always took 10(i+1) ms, so the per-operation value is
		// the mean of 10, 20, … 10·per.
		if got, want := l.perStatementMedian(), 5*float64(per+1); got != want {
			t.Errorf("per %d: perStatementMedian = %v, want %v", per, got, want)
		}
		if len(l.wallMs) != 3 || len(l.samples) != 3*per {
			t.Errorf("per %d: %d cycles, %d samples after three extends", per, len(l.wallMs), len(l.samples))
		}
	}
}

func TestFailureReasons(t *testing.T) {
	exp := &expectations{Stmts: []expected{{Rows: 10, Sum: 0xabc}}}
	for _, tc := range []struct {
		name string
		sm   sample
		fail bool
	}{
		{"right count, unchecked", sample{Rows: 10}, false},
		{"right count and checksum", sample{Rows: 10, Sum: 0xabc, Checked: true}, false},
		{"wrong count", sample{Rows: 9}, true},
		{"wrong checksum", sample{Rows: 10, Sum: 0xabd, Checked: true}, true},
		{"error", sample{Rows: 10, Err: errors.New("overloaded")}, true},
		{"unknown statement", sample{Stmt: 3, Rows: 10}, true},
	} {
		if got := exp.failure(tc.sm) != ""; got != tc.fail {
			t.Errorf("%s: failed = %v, want %v", tc.name, got, tc.fail)
		}
	}
}

// BENCHMARK.json is generated from spec.go; this keeps the two equal and
// inside the limits the benchmark contract sets.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	m := buildManifest()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
	}
	for _, w := range m.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		check(e.Name, e.Unit)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == lower)
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s")
	}
	for _, l := range m.PerLayer {
		check(l.Name, l.Unit)
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 || len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed the contract", len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}

	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v (regenerate with `bash benchmark/run.sh manifest > BENCHMARK.json`)", err)
	}
	var onDisk manifest
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, m) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate with `bash benchmark/run.sh manifest > BENCHMARK.json`")
	}
}

// smokeSizes is every workload at smokeRows (2 000) rows for one round.
func smokeSizes(workload string) sizes {
	sz := sizes{Rows: smokeRows, SampleRows: 500, SetupReps: 1, LadderReps: 1}
	switch workload {
	case "append_subscribe":
		sz.EpochOps, sz.QueryEvery, sz.BatchRows, sz.HotItems = 10, 5, 100, 4
	case "frames_inmem":
		sz.SetupReps = 3 // one in the groundwork, one before the loop, one after it
	}
	return sz
}

// TestSmoke runs all five workloads, timed and traced, end to end: an API
// change elsewhere in the repository that breaks the harness fails here.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloadSpecs {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel() // correctness only: the timings of a smoke run mean nothing
			cfg := runConfig{Workload: w.Name, Seed: defaultSeed, Seconds: 0, Sizes: smokeSizes(w.Name), OutDir: t.TempDir()}
			g, err := layGroundwork(ctx, cfg, max(cfg.Sizes.SetupReps/2, 1))
			if err != nil {
				t.Fatal(err)
			}
			// The groundwork reaches a timed run as JSON from a child process.
			data, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			g = &groundwork{}
			if err := json.Unmarshal(data, g); err != nil {
				t.Fatal(err)
			}
			timed, err := runTimed(ctx, cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			if !timed.Correct || timed.Failed != 0 || timed.Attempted == 0 {
				t.Fatalf("timed: correct=%v attempted=%d failed=%d %v", timed.Correct, timed.Attempted, timed.Failed, timed.Failures)
			}
			// The groundwork's set-up, the one before the loop, and after the
			// loop whatever SetupReps still asks for.
			if n, want := timed.Metrics["setup_s"].N, max(cfg.Sizes.SetupReps, 2); n != want {
				t.Errorf("timed: setup_s is taken from %d set-ups, want %d", n, want)
			}
			for _, spec := range endToEnd {
				if m, ok := timed.Metrics[spec.Name]; !ok || m.Value <= 0 {
					t.Errorf("timed: end-to-end metric %s = %v, want > 0", spec.Name, m.Value)
				}
			}
			for _, n := range []string{"query_ms_p50", "query_ms_p90", "ops_per_s", "cpu_ms_per_op"} {
				if timed.Metrics[n].Value <= 0 {
					t.Errorf("timed: %s = %v, want > 0", n, timed.Metrics[n].Value)
				}
			}
			if w.Name == "append_subscribe" {
				for _, n := range []string{"append_ms_p50", "append_ms_p90", "ingest_rows_per_s"} {
					if timed.Metrics[n].Value <= 0 {
						t.Errorf("timed: %s = %v, want > 0", n, timed.Metrics[n].Value)
					}
				}
			}
			if w.Name == "chain_spill" && timed.Metrics["blocks_per_op"].Value <= 0 {
				t.Error("chain_spill did not spill")
			}
			var line struct {
				Correct   *bool                      `json:"correct"`
				Attempted *int                       `json:"attempted"`
				Failed    *int                       `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(contractLine(timed)), &line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Fatalf("contract line %s: %v", contractLine(timed), err)
			}
			if len(line.Metrics) != len(endToEnd) {
				t.Errorf("timed contract line carries %d metrics, want the %d end-to-end ones", len(line.Metrics), len(endToEnd))
			}

			cfg.Trace = true
			traced, err := runTraced(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct {
				t.Fatalf("traced: failed=%d %v", traced.Failed, traced.Failures)
			}
			for _, spec := range perLayer {
				if _, ok := traced.Metrics[spec.Name]; !ok {
					t.Errorf("traced: per-layer metric %s missing", spec.Name)
				}
			}
			for _, n := range []string{"storage.compare_ns", "xsort.external_sort_ms", "window.rank_ns_per_row", "ladder.top_ms"} {
				if traced.Metrics[n].Value <= 0 {
					t.Errorf("traced: %s = %v, want > 0", n, traced.Metrics[n].Value)
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.OutDir, "trace-"+w.Name+".json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}
