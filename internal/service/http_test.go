package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro"
	"repro/internal/datagen"
)

func doJSON(t *testing.T, h http.Handler, method, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var decoded map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil && rec.Code != http.StatusOK {
		t.Fatalf("%s %s: non-JSON %d response: %q", method, path, rec.Code, rec.Body.String())
	}
	return rec, decoded
}

// TestHTTPQueryRoundTrip: the happy path returns columns, typed rows and
// serving metadata.
func TestHTTPQueryRoundTrip(t *testing.T) {
	svc := newTestService(t, Config{}, 500)
	h := svc.Handler()
	body := `{"sql": "SELECT empnum, rank() OVER (ORDER BY salary DESC) AS r FROM emptab ORDER BY r LIMIT 2", "max_rows": 1}`
	rec, resp := doJSON(t, h, http.MethodPost, "/query", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	cols, _ := resp["columns"].([]any)
	if len(cols) != 2 || cols[0] != "empnum" || cols[1] != "r" {
		t.Fatalf("columns = %v", cols)
	}
	if resp["row_count"].(float64) != 2 {
		t.Fatalf("row_count = %v, want 2", resp["row_count"])
	}
	rows, _ := resp["rows"].([]any)
	if len(rows) != 1 || resp["truncated"] != true {
		t.Fatalf("max_rows: got %d rows, truncated=%v", len(rows), resp["truncated"])
	}
	if resp["chain"] == "" {
		t.Fatal("missing chain")
	}
	// Second identical query via GET must be a cache hit.
	rec, resp = doJSON(t, h, http.MethodGet,
		"/query?q="+url.QueryEscape("SELECT empnum, rank() OVER (ORDER BY salary DESC) AS r FROM emptab ORDER BY r LIMIT 2"), "")
	if rec.Code != http.StatusOK || resp["cache_hit"] != true {
		t.Fatalf("GET repeat: status %d cache_hit=%v", rec.Code, resp["cache_hit"])
	}
}

// TestHTTPErrorTaxonomy asserts the full status mapping through the
// handler: parse/bind → 400, unknown table → 404, admission overflow →
// 429, server-side timeout → 503, engine fault → 500, malformed requests
// → 400/405.
func TestHTTPErrorTaxonomy(t *testing.T) {
	svc := newTestService(t, Config{Slots: 1}, 500)
	h := svc.Handler()
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		kind   string
		setup  func()
	}{
		{
			name: "parse error", method: http.MethodPost, path: "/query",
			body:   `{"sql": "SELEKT * FROM emptab"}`,
			status: http.StatusBadRequest, kind: "parse",
		},
		{
			name: "trailing garbage", method: http.MethodPost, path: "/query",
			body:   `{"sql": "SELECT * FROM emptab;"}`,
			status: http.StatusBadRequest, kind: "parse",
		},
		{
			name: "bind unknown column", method: http.MethodPost, path: "/query",
			body:   `{"sql": "SELECT nosuch FROM emptab"}`,
			status: http.StatusBadRequest, kind: "bind",
		},
		{
			name: "bind unknown window function", method: http.MethodPost, path: "/query",
			body:   `{"sql": "SELECT frobnicate() OVER (ORDER BY salary) FROM emptab"}`,
			status: http.StatusBadRequest, kind: "bind",
		},
		{
			name: "bind bad ORDER BY", method: http.MethodPost, path: "/query",
			body:   `{"sql": "SELECT empnum FROM emptab ORDER BY nosuch"}`,
			status: http.StatusBadRequest, kind: "bind",
		},
		{
			name: "unknown table", method: http.MethodPost, path: "/query",
			body:   `{"sql": "SELECT * FROM missing"}`,
			status: http.StatusNotFound, kind: "unknown_table",
		},
		{
			name: "engine fault", method: http.MethodPost, path: "/query",
			// sum over a string column binds (the column exists) but fails
			// in the evaluator — a genuine engine-side fault.
			body:   `{"sql": "SELECT sum(ws_pad) OVER (PARTITION BY ws_item_sk) FROM web_sales"}`,
			status: http.StatusInternalServerError, kind: "internal",
		},
		{
			name: "timeout", method: http.MethodPost, path: "/query",
			// Two functions with different partition keys force a two-step
			// chain: the 1ms deadline has certainly expired by the step
			// boundary after the first reorder of 30k rows.
			body:   `{"sql": "SELECT rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r1, rank() OVER (PARTITION BY ws_bill_customer_sk ORDER BY ws_sold_time_sk) AS r2 FROM big", "timeout_ms": 1}`,
			status: http.StatusServiceUnavailable, kind: "timeout",
			setup: func() {
				svc.Engine().Register("big", datagen.WebSales(datagen.WebSalesConfig{Rows: 30_000, Seed: 3}))
			},
		},
		{
			name: "overloaded", method: http.MethodPost, path: "/query",
			body:   `{"sql": "SELECT * FROM emptab"}`,
			status: http.StatusTooManyRequests, kind: "overloaded",
			setup: func() {
				svc.cfg.MaxQueue = 0 // immediate rejection...
				svc.gov.maxQueue = 0
				svc.gov.slots <- struct{}{} // ...with the only slot held
			},
		},
		{
			name: "empty request", method: http.MethodPost, path: "/query",
			body:   `{}`,
			status: http.StatusBadRequest, kind: "request",
		},
		{
			name: "bad JSON", method: http.MethodPost, path: "/query",
			body:   `{"sql": `,
			status: http.StatusBadRequest, kind: "request",
		},
		{
			name: "bad method", method: http.MethodDelete, path: "/query",
			status: http.StatusMethodNotAllowed, kind: "request",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.setup != nil {
				c.setup()
			}
			rec, resp := doJSON(t, h, c.method, c.path, c.body)
			if rec.Code != c.status {
				t.Fatalf("status %d, want %d (body %s)", rec.Code, c.status, rec.Body.String())
			}
			if resp["kind"] != c.kind {
				t.Fatalf("kind %v, want %q (body %s)", resp["kind"], c.kind, rec.Body.String())
			}
			if resp["error"] == "" {
				t.Fatal("missing error message")
			}
		})
	}
}

// TestHTTPStatsAndHealth: the observability endpoints respond.
func TestHTTPStatsAndHealth(t *testing.T) {
	svc := newTestService(t, Config{}, 200)
	h := svc.Handler()
	if _, err := windowdb.Collect(httptest.NewRequest("GET", "/", nil).Context(), svc, `SELECT empnum FROM emptab LIMIT 1`); err != nil {
		t.Fatal(err)
	}
	rec, stats := doJSON(t, h, http.MethodGet, "/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats: %d", rec.Code)
	}
	if stats["queries"].(float64) != 1 {
		t.Fatalf("/stats queries = %v, want 1", stats["queries"])
	}
	if _, ok := stats["cache"].(map[string]any); !ok {
		t.Fatalf("/stats missing cache block: %v", stats)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("/healthz: %d %q", rec.Code, rec.Body.String())
	}
}

// TestHTTPTableNameCase: table names resolve case-insensitively in the
// catalog, so a query's outcome never depends on cache state — any case
// variant succeeds cold, and alias case is preserved per request (case
// variants get distinct cache slots).
func TestHTTPTableNameCase(t *testing.T) {
	svc := newTestService(t, Config{}, 100)
	h := svc.Handler()
	rec, resp := doJSON(t, h, http.MethodPost, "/query", `{"sql": "SELECT empnum AS E FROM EMPTAB LIMIT 1"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("uppercase table name on a cold cache: %d %s", rec.Code, rec.Body.String())
	}
	if cols, _ := resp["columns"].([]any); len(cols) != 1 || cols[0] != "E" {
		t.Fatalf("columns = %v, want [E]", resp["columns"])
	}
	// A case variant succeeds too, with its own alias spelling — it must
	// not be served the cached "E" schema.
	rec, resp = doJSON(t, h, http.MethodPost, "/query", `{"sql": "SELECT empnum AS e FROM emptab LIMIT 1"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("lowercase variant: %d %s", rec.Code, rec.Body.String())
	}
	if cols, _ := resp["columns"].([]any); len(cols) != 1 || cols[0] != "e" {
		t.Fatalf("columns = %v, want the request's own alias [e]", resp["columns"])
	}
	// Identical text does hit.
	rec, resp = doJSON(t, h, http.MethodPost, "/query", `{"sql": "SELECT empnum AS e FROM emptab LIMIT 1"}`)
	if rec.Code != http.StatusOK || resp["cache_hit"] != true {
		t.Fatalf("identical repeat should hit: %d hit=%v", rec.Code, resp["cache_hit"])
	}
}
