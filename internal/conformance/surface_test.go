package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	windowdb "repro"
	"repro/internal/datagen"
	"repro/internal/service"
	"repro/internal/shard"
)

// surfaceFront is one HTTP front end TestHTTPSurface sends its requests to.
type surfaceFront struct {
	name string
	h    http.Handler
	// node: the front end mounts the /shard/* node routes.
	node bool
	// families is the set of /metrics # TYPE family names it serves.
	families []string
}

// engineFamilies are the /metrics families of a single engine and of a
// shard node.
var engineFamilies = []string{
	"windowdb_admission_queue_depth", "windowdb_admission_slots", "windowdb_appends_total",
	"windowdb_arena_pool_bytes", "windowdb_block_pool_allocated_total", "windowdb_block_pool_held",
	"windowdb_blocks_read_total", "windowdb_blocks_written_total", "windowdb_build_info",
	"windowdb_comparisons_total", "windowdb_in_flight", "windowdb_in_flight_max", "windowdb_live_queries",
	"windowdb_plan_cache_entries", "windowdb_plan_cache_evictions_total", "windowdb_plan_cache_hits_total",
	"windowdb_plan_cache_invalidations_total", "windowdb_plan_cache_misses_total",
	"windowdb_queries_aborted_total", "windowdb_queries_total", "windowdb_query_duration_seconds",
	"windowdb_query_failures_total", "windowdb_query_rejected_total", "windowdb_rows_appended_total",
	"windowdb_rows_out_total", "windowdb_shuffle_rounds_total", "windowdb_sort_workspace_bytes",
	"windowdb_subplan_cache_attaches_total", "windowdb_subplan_cache_entries",
	"windowdb_subplan_cache_evictions_total", "windowdb_subplan_cache_fallbacks_total",
	"windowdb_subplan_cache_hits_total", "windowdb_subplan_cache_invalidations_total",
	"windowdb_subplan_cache_misses_total", "windowdb_uptime_seconds", "windowdb_workspace_bytes",
}

// coordinatorFamilies are the /metrics families of a cluster coordinator.
var coordinatorFamilies = []string{
	"windowdb_appends_total", "windowdb_arena_pool_bytes", "windowdb_block_pool_allocated_total",
	"windowdb_block_pool_held", "windowdb_build_info", "windowdb_live_queries",
	"windowdb_plan_cache_entries", "windowdb_plan_cache_evictions_total", "windowdb_plan_cache_hits_total",
	"windowdb_plan_cache_invalidations_total", "windowdb_plan_cache_misses_total",
	"windowdb_queries_aborted_total", "windowdb_queries_total", "windowdb_query_failures_total",
	"windowdb_query_rejected_total", "windowdb_route_queries_total", "windowdb_rows_appended_total",
	"windowdb_shard_blocks_read_total", "windowdb_shard_blocks_written_total", "windowdb_shard_failures_total",
	"windowdb_shard_in_flight",
	"windowdb_shard_queries_total", "windowdb_shard_rejected_total", "windowdb_shard_rows_out_total",
	"windowdb_shard_shuffle_rounds_total", "windowdb_shards", "windowdb_shuffle_round_imbalance",
	"windowdb_sort_workspace_bytes", "windowdb_workspace_bytes",
}

// surfaceFronts builds a single engine, a shard node and a coordinator over
// two in-process nodes, each serving emptab, under fc.
func surfaceFronts(t *testing.T, fc service.FrontConfig) []surfaceFront {
	t.Helper()
	engine := service.New(windowdb.New(engCfg()), service.Config{FrontConfig: fc})
	engine.Engine().Register("emptab", datagen.Emptab())
	node := service.New(windowdb.New(engCfg()), service.Config{FrontConfig: fc, ShardRoutes: true})
	node.Engine().Register("emptab", datagen.Emptab())
	shards := make([]shard.Transport, 2)
	for i := range shards {
		shards[i] = shard.NewLocal(service.New(windowdb.New(engCfg()), service.Config{}))
	}
	c, err := shard.New(shard.Config{FrontConfig: fc, Engine: engCfg()}, shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterReplicated(context.Background(), "emptab", datagen.Emptab()); err != nil {
		t.Fatal(err)
	}
	return []surfaceFront{
		{name: "engine", h: engine.Handler(), families: engineFamilies},
		{name: "shardnode", h: node.Handler(), node: true, families: engineFamilies},
		{name: "coordinator", h: c.Handler(), families: coordinatorFamilies},
	}
}

// surfaceRow is one request and what every front end must answer it with.
type surfaceRow struct {
	method, path, body string
	status             int
	// allow is the Allow header a 405 carries, "" otherwise.
	allow string
	// kind is the error body's kind, "" for a success.
	kind string
	// list: the success body is the JSON empty list.
	list bool
	// node: only a shard node mounts the route.
	node bool
}

// TestHTTPSurface: a single engine, a shard node and a cluster coordinator
// answer one request table alike — the same status, the same Allow header
// on a refused method, the same error kind, the same 405 body — so a client
// cannot tell which one it talks to. Every public route is sent its allowed
// methods and a refused one; the empty lists, an unknown {id}, a bad append
// body and a parse error ride along. The /shard/* node routes are checked on
// the node. /metrics serves each front end's family set.
func TestHTTPSurface(t *testing.T) {
	const get, getPost = "GET, HEAD", "GET, HEAD, POST"
	rows := []surfaceRow{
		// The empty lists first, while nothing has run.
		{method: "GET", path: "/debug/trace/", status: 200, list: true},
		{method: "GET", path: "/debug/queries", status: 200, list: true},

		{method: "HEAD", path: "/healthz", status: 200},
		{method: "GET", path: "/healthz", status: 200},
		{method: "POST", path: "/healthz", status: 405, allow: get, kind: "request"},
		{method: "GET", path: "/stats", status: 200},
		{method: "POST", path: "/stats", status: 405, allow: get, kind: "request"},
		{method: "GET", path: "/metrics", status: 200},
		{method: "POST", path: "/metrics", status: 405, allow: get, kind: "request"},

		{method: "GET", path: "/query?q=SELECT+empnum+FROM+emptab", status: 200},
		{method: "POST", path: "/query", body: `{"sql": "SELECT empnum FROM emptab"}`, status: 200},
		{method: "PUT", path: "/query", status: 405, allow: getPost, kind: "request"},
		{method: "GET", path: "/query?q=SELEKT+empnum+FROM+emptab", status: 400, kind: "parse"},
		{method: "POST", path: "/query", body: `{}`, status: 400, kind: "request"},

		{method: "POST", path: "/append", body: `{"table":"emptab","rows":[[{"i":"11"},{"i":"1"},{"i":"50000"}]]}`, status: 200},
		{method: "GET", path: "/append", status: 405, allow: "POST", kind: "request"},
		{method: "POST", path: "/append", body: `{"table":`, status: 400, kind: "request"},

		{method: "POST", path: "/debug/trace/", status: 405, allow: get, kind: "request"},
		{method: "GET", path: "/debug/trace/nosuchtrace", status: 404, kind: "request"},
		{method: "DELETE", path: "/debug/trace/nosuchtrace", status: 405, allow: get, kind: "request"},
		{method: "DELETE", path: "/debug/queries", status: 405, allow: get, kind: "request"},
		{method: "GET", path: "/debug/queries/nosuchquery", status: 404, kind: "request"},
		{method: "DELETE", path: "/debug/queries/nosuchquery", status: 404, kind: "request"},
		{method: "PUT", path: "/debug/queries/nosuchquery", status: 405, allow: "DELETE, GET, HEAD", kind: "request"},

		// Paths no route matches: the same JSON 404 as every refusal.
		{method: "GET", path: "/query/", status: 404, kind: "request"},
		{method: "GET", path: "/stats/", status: 404, kind: "request"},
		{method: "GET", path: "/debug/trace/a/b", status: 404, kind: "request"},

		{method: "GET", path: "/shard/distinct?table=emptab&attrs=0", status: 200, node: true},
		{method: "POST", path: "/shard/distinct?table=emptab&attrs=0", status: 405, allow: get, kind: "request", node: true},
		{method: "GET", path: "/shard/query", status: 405, allow: "POST", kind: "request", node: true},
		{method: "GET", path: "/shard/register", status: 405, allow: "POST", kind: "request", node: true},
		{method: "GET", path: "/shard/shuffle", status: 405, allow: "POST", kind: "request", node: true},
		{method: "GET", path: "/shard/shuffle/run", status: 405, allow: "POST", kind: "request", node: true},
		{method: "GET", path: "/shard/shuffle/drop", status: 405, allow: "POST", kind: "request", node: true},
	}
	fronts := surfaceFronts(t, service.FrontConfig{})
	for _, row := range rows {
		name := row.method + " " + row.path
		t.Run(name, func(t *testing.T) {
			var body405 string
			for _, f := range fronts {
				if row.node && !f.node {
					continue
				}
				rec := httptest.NewRecorder()
				f.h.ServeHTTP(rec, httptest.NewRequest(row.method, row.path, strings.NewReader(row.body)))
				if rec.Code != row.status {
					t.Errorf("%s: status %d, want %d (body %s)", f.name, rec.Code, row.status, rec.Body.String())
					continue
				}
				if got := rec.Header().Get("Allow"); got != row.allow {
					t.Errorf("%s: Allow %q, want %q", f.name, got, row.allow)
				}
				if row.kind != "" {
					var e struct{ Error, Kind string }
					if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" || e.Kind != row.kind {
						t.Errorf("%s: error body %s, want kind %q", f.name, rec.Body.String(), row.kind)
					}
				}
				if row.list && strings.TrimSpace(rec.Body.String()) != "[]" {
					t.Errorf("%s: listing %s, want []", f.name, rec.Body.String())
				}
				if row.status == http.StatusMethodNotAllowed {
					if body405 == "" {
						body405 = rec.Body.String()
					} else if rec.Body.String() != body405 {
						t.Errorf("%s: 405 body %s differs from %s", f.name, rec.Body.String(), body405)
					}
				}
				if row.path == "/metrics" && row.method == "GET" {
					if got := typeFamilies(rec.Body.Bytes()); !slices.Equal(got, f.families) {
						t.Errorf("%s: /metrics families %q, want %q", f.name, got, f.families)
					}
				}
			}
		})
	}

	// With retention off there is no ring to list: the route stays a 404.
	for _, f := range surfaceFronts(t, service.FrontConfig{TraceRing: -1}) {
		rec := httptest.NewRecorder()
		f.h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace/", nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s with tracing off: GET /debug/trace/ = %d, want 404", f.name, rec.Code)
		}
	}
}

// typeFamilies returns the sorted family names of an exposition's # TYPE
// lines.
func typeFamilies(exposition []byte) []string {
	var names []string
	for _, line := range bytes.Split(exposition, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("# TYPE ")); ok {
			names = append(names, string(bytes.Fields(rest)[0]))
		}
	}
	slices.Sort(names)
	return names
}
