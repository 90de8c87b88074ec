package service

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/cache"
	"repro/internal/sql"
	"repro/internal/trace"
)

// TestMetricsExposition is the golden check for the Prometheus text
// exposition: after a couple of queries, /metrics must carry every
// required family with HELP/TYPE headers, parseable sample values, and a
// latency histogram whose cumulative buckets are monotone and terminate
// in +Inf matching _count.
func TestMetricsExposition(t *testing.T) {
	svc := newTestService(t, Config{Slots: 2}, 2000)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := windowdb.Collect(ctx, svc, mixQ1); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q is not the exposition format", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	lines := strings.Split(strings.TrimSpace(body), "\n")

	// Every non-comment line must parse as `name{labels} value`.
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)
	for _, line := range lines {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Fatalf("malformed sample line %q", line)
		}
	}

	for _, fam := range []string{
		"windowdb_queries_total",
		"windowdb_query_failures_total",
		"windowdb_query_rejected_total",
		"windowdb_rows_out_total",
		"windowdb_plan_cache_hits_total",
		"windowdb_in_flight",
		"windowdb_admission_slots",
		"windowdb_uptime_seconds",
		"windowdb_query_duration_seconds",
		"windowdb_block_pool_allocated_total",
		"windowdb_block_pool_held",
		"windowdb_sort_workspace_bytes",
		"windowdb_workspace_bytes",
		"windowdb_arena_pool_bytes",
	} {
		if !strings.Contains(body, "# HELP "+fam+" ") {
			t.Errorf("missing HELP for %s", fam)
		}
		if !strings.Contains(body, "# TYPE "+fam+" ") {
			t.Errorf("missing TYPE for %s", fam)
		}
	}

	if !strings.Contains(body, "windowdb_queries_total 2") {
		t.Errorf("queries_total should read 2:\n%s", body)
	}

	// The two queries sorted 2000 rows in memory: their scratch is back in
	// the workspace and the gauge shows it retained.
	if m := regexp.MustCompile(`(?m)^windowdb_sort_workspace_bytes (\S+)$`).FindStringSubmatch(body); m == nil {
		t.Errorf("sort_workspace_bytes has no sample")
	} else if v, err := strconv.ParseFloat(m[1], 64); err != nil || v < 24 {
		t.Errorf("sort_workspace_bytes = %q after in-memory sorts, want the retained scratch", m[1])
	}

	if m := regexp.MustCompile(`(?m)^windowdb_workspace_bytes (\S+)$`).FindStringSubmatch(body); m == nil {
		t.Errorf("workspace_bytes has no sample")
	} else if v, err := strconv.ParseFloat(m[1], 64); err != nil || v <= 0 {
		t.Errorf("workspace_bytes = %q after two statements, want the workspace their runs gave back", m[1])
	}

	if m := regexp.MustCompile(`(?m)^windowdb_arena_pool_bytes (\S+)$`).FindStringSubmatch(body); m == nil {
		t.Errorf("arena_pool_bytes has no sample")
	} else if v, err := strconv.ParseFloat(m[1], 64); err != nil || v < 0 {
		t.Errorf("arena_pool_bytes = %q, want a byte count", m[1])
	}

	// Histogram: buckets cumulative and monotone, +Inf == _count == 2.
	var prev float64
	var bucketLines int
	var infSeen bool
	for _, line := range lines {
		if !strings.HasPrefix(line, "windowdb_query_duration_seconds_bucket{") {
			continue
		}
		bucketLines++
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("bucket value in %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts not monotone at %q (%v < %v)", line, v, prev)
		}
		prev = v
		if strings.Contains(line, `le="+Inf"`) {
			infSeen = true
			if v != 2 {
				t.Fatalf("+Inf bucket = %v, want 2", v)
			}
		}
	}
	if bucketLines < 2 || !infSeen {
		t.Fatalf("histogram exposition incomplete (%d bucket lines, inf=%v)", bucketLines, infSeen)
	}
	if !strings.Contains(body, "windowdb_query_duration_seconds_count 2") {
		t.Errorf("histogram _count should read 2")
	}
	if !strings.Contains(body, "windowdb_query_duration_seconds_sum ") {
		t.Errorf("histogram _sum missing")
	}
}

// TestDebugTraceEndpoint exercises the ring-backed /debug/trace surface:
// a served query lands in the ring, is listable newest-first, and
// fetchable by the ID the response advertised.
func TestDebugTraceEndpoint(t *testing.T) {
	svc := newTestService(t, Config{Slots: 1}, 2000)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/query", "application/json",
		strings.NewReader(`{"sql":"`+mixQ1+`","max_rows":1}`))
	if err != nil {
		t.Fatal(err)
	}
	id := resp.Header.Get(trace.HeaderTraceID)
	var qr struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id == "" || qr.TraceID != id {
		t.Fatalf("trace ID header %q vs body %q", id, qr.TraceID)
	}

	list, err := http.Get(srv.URL + "/debug/trace/")
	if err != nil {
		t.Fatal(err)
	}
	var recent []*trace.Trace
	if err := json.NewDecoder(list.Body).Decode(&recent); err != nil {
		t.Fatal(err)
	}
	list.Body.Close()
	if len(recent) == 0 || recent[0].ID != id {
		t.Fatalf("recent traces %v missing query %s", recent, id)
	}

	one, err := http.Get(srv.URL + "/debug/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var tr trace.Trace
	if err := json.NewDecoder(one.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	one.Body.Close()
	if tr.ID != id || tr.Root == nil {
		t.Fatalf("trace %s came back without a span tree: %+v", id, tr)
	}
	found := false
	for _, c := range tr.Root.Children {
		if c.Name == "execute" {
			found = true
		}
	}
	if !found {
		t.Fatalf("span tree lacks an execute child: %v", trace.Render(tr.Root))
	}

	if missing, err := http.Get(srv.URL + "/debug/trace/ffffffffffffffff"); err != nil {
		t.Fatal(err)
	} else {
		missing.Body.Close()
		if missing.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown trace ID: %s, want 404", missing.Status)
		}
	}
}

// TestTraceIDJoinsCaller pins wire propagation: a caller-supplied
// X-Windowdb-Trace-Id must be adopted, echoed, and used as the recorded
// trace's ID instead of a freshly minted one.
func TestTraceIDJoinsCaller(t *testing.T) {
	svc := newTestService(t, Config{Slots: 1}, 2000)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/query",
		strings.NewReader(`{"sql":"`+mixQ1+`","max_rows":1}`))
	req.Header.Set(trace.HeaderTraceID, "cafecafecafecafe")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(trace.HeaderTraceID); got != "cafecafecafecafe" {
		t.Fatalf("echoed trace ID %q", got)
	}
	if svc.Traces().Get("cafecafecafecafe") == nil {
		t.Fatal("caller-supplied trace ID not joined")
	}
}

// TestServeTraceRingLimit: the /debug/trace/ listing is newest-first and
// ?limit= bounds it — capped at the ring's capacity, defaulting to 32,
// with ?n= as the legacy spelling and junk values falling back to the
// default.
func TestServeTraceRingLimit(t *testing.T) {
	ring := trace.NewRing(4)
	for i := 0; i < 6; i++ {
		ring.Add(&trace.Trace{ID: "t" + strconv.Itoa(i)})
	}
	list := func(query string) []trace.Trace {
		t.Helper()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/debug/trace/"+query, nil)
		ServeTraceRing(rec, req, ring, "/debug/trace/")
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /debug/trace/%s: %d", query, rec.Code)
		}
		var out []trace.Trace
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("listing is not JSON: %v", err)
		}
		return out
	}

	got := list("?limit=2")
	if len(got) != 2 || got[0].ID != "t5" || got[1].ID != "t4" {
		t.Fatalf("limit=2 listing = %+v, want [t5 t4]", got)
	}
	// The ring holds 4 traces (t2..t5 after eviction); any larger limit —
	// explicit or the default — is capped at its capacity.
	for _, q := range []string{"", "?limit=9999", "?limit=bogus", "?limit=-3"} {
		if got := list(q); len(got) != 4 || got[0].ID != "t5" || got[3].ID != "t2" {
			t.Fatalf("listing %q = %+v, want the full ring [t5..t2]", q, got)
		}
	}
	if got := list("?n=1"); len(got) != 1 || got[0].ID != "t5" {
		t.Fatalf("legacy n=1 listing = %+v, want [t5]", got)
	}
}

// TestQuerySpansCoverTheRoot: a served query's spans account for its wall
// time. The plan-cache lookup and the shared-subplan lookup have spans of
// their own carrying their dispositions, so neither a miss's prepare nor an
// attacher's wait is booked as drain: for a plan miss, a plan hit, a
// subplan hit and an attach the children cover 95–100 % of the root, and
// drain is exactly what the other spans leave.
func TestQuerySpansCoverTheRoot(t *testing.T) {
	ctx := context.Background()
	check := func(name string, rows *windowdb.Rows, planCache, sharedScan string) {
		t.Helper()
		for rows.Next() {
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		root := rows.Metrics().Trace
		spans := map[string]*trace.Span{}
		var covered, others float64
		for _, c := range root.Children {
			spans[c.Name] = c
			covered += c.DurationMillis
			if c.Name != "drain" {
				others += c.DurationMillis
			}
		}
		if p := spans["plan"]; p == nil || p.Attrs["plan_cache"] != planCache {
			t.Errorf("%s: plan span %+v, want plan_cache=%s", name, p, planCache)
		}
		if s := spans["subplan"]; s == nil || s.Attrs["shared_scan"] != sharedScan {
			t.Errorf("%s: subplan span %+v, want shared_scan=%s", name, s, sharedScan)
		}
		if frac := covered / root.DurationMillis; frac < 0.95 || frac > 1.0001 {
			t.Errorf("%s: children cover %.1f %% of the root:\n%s", name, 100*frac, trace.Render(root))
		}
		if d := spans["drain"]; d != nil && math.Abs(d.DurationMillis-(root.DurationMillis-others)) > 1e-6 {
			t.Errorf("%s: drain %.4f ms, but the other spans leave %.4f ms", name, d.DurationMillis, root.DurationMillis-others)
		}
	}
	query := func(svc *Service) *windowdb.Rows {
		rows, err := svc.QueryContext(ctx, shareQFine)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}

	svc := newSpillService(t, Config{Slots: 2}, 3000)
	check("plan miss", query(svc), cache.Miss, cache.Miss)
	check("plan hit", query(svc), cache.Hit, cache.Hit)

	// An attach: a scan of the statement's subplan is held in flight while
	// the query arrives, and released once the query waits on it.
	svc = newSpillService(t, Config{Slots: 2}, 3000)
	prep, _, err := svc.resolve(ctx, shareQFine)
	if err != nil {
		t.Fatal(err)
	}
	release, led := make(chan struct{}), make(chan error, 1)
	go func() {
		_, _, err := svc.subplans.Get(ctx, subplanLookup(prep), svc.eng.Generation(), func() (*sql.SharedSegment, error) {
			<-release
			return prep.RunSubplan(ctx)
		})
		led <- err
	}()
	for svc.Stats().Subplans.Misses < 1 {
		runtime.Gosched()
	}
	attached := make(chan *windowdb.Rows, 1)
	go func() { attached <- query(svc) }()
	for svc.Stats().Subplans.Attaches < 1 {
		runtime.Gosched()
	}
	close(release)
	if err := <-led; err != nil {
		t.Fatal(err)
	}
	check("attach", <-attached, cache.Hit, cache.Attach)
}
