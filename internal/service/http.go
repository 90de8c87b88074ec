package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"net/http"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Backend is what the route table (NewHandler) serves besides its Front: a
// statement executor plus the hooks on which a single engine and a cluster
// coordinator differ. Where a shard.Transport method exists, the hook has
// its signature.
type Backend interface {
	windowdb.Queryer
	// Append applies one batch of rows to a table at a data generation of
	// at least atLeast: POST /append and the INSERT verb.
	Append(ctx context.Context, table string, rows []storage.Tuple, atLeast uint64) (AppendResponse, error)
	// StatsBody is the GET /stats JSON body.
	StatsBody(ctx context.Context) (any, error)
	// Health reports nil when the backend serves; an error is GET /healthz's
	// 503 "degraded" status.
	Health(ctx context.Context) error
	// WriteMetrics writes the backend's own GET /metrics families, beside
	// the Front's and the process's.
	WriteMetrics(ctx context.Context, p *PromWriter) error
	// LiveQueries lists the in-flight statements, newest first: GET
	// /debug/queries[/{id}].
	LiveQueries(ctx context.Context) ([]trace.QueryInfo, error)
	// KillQuery cancels the in-flight statement id, false when none is
	// held: DELETE /debug/queries/{id}.
	KillQuery(ctx context.Context, id string) (bool, error)
}

// methods maps each method a route answers to its handler.
type methods map[string]http.HandlerFunc

// route mounts a route on mux: the one place a request's method is checked.
// A GET route answers HEAD too; any other method is a 405 whose Allow header
// and {"error","kind":"request"} body name the methods the route answers.
func route(mux *http.ServeMux, pattern string, ms methods) {
	if get, ok := ms[http.MethodGet]; ok {
		ms[http.MethodHead] = get
	}
	allow := strings.Join(slices.Sorted(maps.Keys(ms)), ", ")
	refused := errors.New("service: " + strings.TrimSuffix(pattern, "{$}") + " answers " + allow)
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		h, ok := ms[r.Method]
		if !ok {
			w.Header().Set("Allow", allow)
			writeError(w, http.StatusMethodNotAllowed, "request", refused)
			return
		}
		h(w, r)
	})
}

// NewHandler returns the HTTP/JSON surface every front end serves — a
// single engine, a shard node and a cluster coordinator alike — over f's
// statement lifecycle and b:
//
//	GET, POST   /query               GET ?q=SELECT+..., POST {"sql": "...", "max_rows": 100, "timeout_ms": 5000}
//	POST        /append              one batch of rows for a registered table (append.go)
//	GET         /stats               b.StatsBody as JSON
//	GET         /healthz             status, version, codecs and f's role; 503 when b.Health fails
//	GET         /metrics             Prometheus exposition: f's, b's and the process's families
//	GET         /debug/trace/[{id}]  recent statement traces, newest first, or one
//	GET         /debug/queries       in-flight statements, newest first
//	GET, DELETE /debug/queries/{id}  one in-flight statement; DELETE kills it
//
// Every GET route answers HEAD too; any other method is a 405 (route). A
// path no route matches is a 404 with the same {"error","kind":"request"}
// body as every other refusal, not the mux's plain text.
//
// /query answers with a buffered JSON body by default; a request carrying
// "stream":true, ?stream=1 or `Accept: application/x-ndjson` gets the
// chunked NDJSON stream instead (stream.go) — rows leave as the cursor
// yields them and the admission slot is released when the stream ends or
// the client disconnects. service.Client is the Go consumer of that shape.
//
// Status taxonomy: client errors are distinguished from engine faults —
// malformed requests and parse/bind errors are 400, unknown tables 404,
// admission rejection 429, queries timed out under the server's control
// 503, everything else (a genuine engine fault) 500. Error bodies are
// {"error": "...", "kind": "..."} with kind one of request, parse, bind,
// unknown_table, overloaded, timeout, canceled, internal (and append,
// refused).
func NewHandler(f *Front, b Backend) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "request", fmt.Errorf("service: no route %s", r.URL.Path))
	})
	route(mux, "/query", methods{
		http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
			serveQuery(w, r, f, b, queryRequest{SQL: r.URL.Query().Get("q")})
		},
		http.MethodPost: func(w http.ResponseWriter, r *http.Request) {
			var req queryRequest
			if err := readQueryRequest(w, r, &req); err != nil {
				status, tooLarge := http.StatusBadRequest, (*http.MaxBytesError)(nil)
				if errors.As(err, &tooLarge) {
					status = http.StatusRequestEntityTooLarge
				}
				writeError(w, status, "request", fmt.Errorf("service: bad request body: %w", err))
				return
			}
			serveQuery(w, r, f, b, req)
		},
	})
	route(mux, "/append", methods{http.MethodPost: func(w http.ResponseWriter, r *http.Request) {
		req, rows, err := decodeAppendBody(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, "request", err)
			return
		}
		resp, err := b.Append(r.Context(), req.Table, rows, req.Watermark)
		if err != nil {
			status, kind := appendStatus(err)
			writeError(w, status, kind, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}})
	route(mux, "/stats", methods{http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
		body, err := b.StatsBody(r.Context())
		if err != nil {
			writeFailure(w, err)
			return
		}
		writeJSON(w, http.StatusOK, body)
	}})
	route(mux, "/healthz", methods{http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
		h := healthBody{Status: "ok", Version: buildVersion(), Role: f.role,
			Codecs: []string{string(CodecBinary), string(CodecJSON)}}
		status := http.StatusOK
		if err := b.Health(r.Context()); err != nil {
			h.Status, status = "degraded: "+err.Error(), http.StatusServiceUnavailable
		}
		writeJSON(w, status, h)
	}})
	route(mux, "/metrics", methods{http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
		p := &PromWriter{}
		f.writeMetrics(p)
		if err := b.WriteMetrics(r.Context(), p); err != nil {
			writeFailure(w, err)
			return
		}
		writeProcessMetrics(p)
		writeBuildInfo(p)
		p.serveTo(w)
	}})
	traces := methods{http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
		serveTraces(w, r, f.Traces())
	}}
	route(mux, "/debug/trace/{$}", traces)
	route(mux, "/debug/trace/{id}", traces)
	queries := methods{http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
		infos, err := b.LiveQueries(r.Context())
		if err != nil {
			writeFailure(w, err)
			return
		}
		if infos == nil {
			infos = []trace.QueryInfo{}
		}
		writeJSON(w, http.StatusOK, infos)
	}}
	route(mux, "/debug/queries", queries)
	route(mux, "/debug/queries/{$}", queries)
	route(mux, "/debug/queries/{id}", methods{
		http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
			id := r.PathValue("id")
			infos, err := b.LiveQueries(r.Context())
			if err != nil {
				writeFailure(w, err)
				return
			}
			for _, info := range infos {
				if info.ID == id {
					writeJSON(w, http.StatusOK, info)
					return
				}
			}
			writeError(w, http.StatusNotFound, "request", fmt.Errorf("service: no in-flight query %q", id))
		},
		http.MethodDelete: func(w http.ResponseWriter, r *http.Request) {
			id := r.PathValue("id")
			killed, err := b.KillQuery(r.Context(), id)
			if err != nil {
				writeFailure(w, err)
				return
			}
			if !killed {
				writeError(w, http.StatusNotFound, "request", fmt.Errorf("service: no in-flight query %q", id))
				return
			}
			writeJSON(w, http.StatusOK, KillResponse{ID: id, Killed: true})
		},
	})
	return mux
}

// Handler returns the service's HTTP surface: the front ends' one route
// table (NewHandler) and, with Config.ShardRoutes, the /shard/* node
// routes (shard.go) a cluster coordinator calls. Those are opt-in: register
// would let any client overwrite tables on a public single-engine server.
func (s *Service) Handler() http.Handler {
	mux := NewHandler(s.Front, s)
	if s.cfg.ShardRoutes {
		route(mux, "/shard/query", methods{http.MethodPost: s.handleShardQuery})
		route(mux, "/shard/register", methods{http.MethodPost: s.handleShardRegister})
		route(mux, "/shard/distinct", methods{http.MethodGet: s.handleShardDistinct})
		route(mux, "/shard/shuffle", methods{http.MethodPost: s.handleShuffleIngest})
		route(mux, "/shard/shuffle/run", methods{http.MethodPost: s.handleShuffleRun})
		route(mux, "/shard/shuffle/drop", methods{http.MethodPost: s.handleShuffleDrop})
	}
	return mux
}

// queryResponse is the buffered /query body of every front end; route and
// shards_used are a coordinator's.
type queryResponse struct {
	Columns   []string `json:"columns"`
	Rows      [][]any  `json:"rows"`
	RowCount  int64    `json:"row_count"`
	Truncated bool     `json:"truncated,omitempty"`

	Route      string `json:"route,omitempty"`
	ShardsUsed int    `json:"shards_used,omitempty"`

	ElapsedMillis float64 `json:"elapsed_ms"`
	QueuedMillis  float64 `json:"queued_ms"`
	CacheHit      bool    `json:"cache_hit"`
	SharedScan    string  `json:"shared_scan,omitempty"`

	Chain         string `json:"chain,omitempty"`
	FinalSort     string `json:"final_sort,omitempty"`
	BlocksRead    int64  `json:"blocks_read"`
	BlocksWritten int64  `json:"blocks_written"`
	TraceID       string `json:"trace_id,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// statusFor maps a serving error to its HTTP status and taxonomy kind.
func statusFor(err error) (int, string) {
	switch {
	case errors.Is(err, ErrRefused):
		// First: a refusal is the cluster's fault whatever it wraps.
		return http.StatusInternalServerError, "refused"
	case errors.Is(err, sql.ErrParse):
		return http.StatusBadRequest, "parse"
	case errors.Is(err, sql.ErrBind):
		return http.StatusBadRequest, "bind"
	case errors.Is(err, errBadRequest):
		return http.StatusBadRequest, "request"
	case errors.Is(err, catalog.ErrUnknownTable):
		return http.StatusNotFound, "unknown_table"
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, "timeout"
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "canceled"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// writeJSON answers with body as JSON.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// writeError answers with the {"error", "kind"} body.
func writeError(w http.ResponseWriter, status int, kind string, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error(), Kind: kind})
}

// writeFailure answers err with the status and kind statusFor maps it to.
func writeFailure(w http.ResponseWriter, err error) {
	status, kind := statusFor(err)
	writeError(w, status, kind, err)
}

// serveQuery answers one /query request: join or start the trace, open b's
// cursor, and answer with the stream (WriteStream, in the codec the
// request's own Accept or ?codec= names — NegotiateCodec) or the buffered
// body (writeBuffered) as the request asked. f's registry is where the
// statement's live counters are found for the stream's wire bytes.
func serveQuery(w http.ResponseWriter, r *http.Request, f *Front, b Backend, req queryRequest) {
	if req.SQL == "" {
		writeError(w, http.StatusBadRequest, "request", errors.New("service: empty query: pass ?q= or a JSON body with \"sql\""))
		return
	}
	if v := r.URL.Query().Get("subscribe"); v == "1" || strings.EqualFold(v, "true") {
		req.Subscribe = true
	}
	if req.Subscribe {
		if _, ok := windowdb.StripSubscribe(req.SQL); !ok {
			req.SQL = "SUBSCRIBE " + req.SQL
		}
	}
	// A SUBSCRIBE statement (spelled either way) has no last row to buffer a
	// response around: it only makes sense streamed.
	if _, isLive := windowdb.StripSubscribe(req.SQL); isLive {
		req.Stream = true
	}

	ctx := r.Context()
	if req.TimeoutMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMillis)*time.Millisecond)
		defer cancel()
	}

	// Join the caller's distributed trace, or start one: the ID travels
	// by context into the serving path and back out as a response header,
	// so `curl -i` hands the caller the /debug/trace/{id} key.
	traceID := r.Header.Get(trace.HeaderTraceID)
	if traceID == "" {
		traceID = trace.NewID()
	}
	ctx = trace.NewContext(ctx, traceID)
	ctx = trace.WithClient(ctx, r.RemoteAddr)
	w.Header().Set(trace.HeaderTraceID, traceID)

	rows, err := b.QueryContext(ctx, req.SQL)
	if err != nil {
		writeFailure(w, err)
		return
	}
	if req.Stream || streamRequested(r) {
		WriteStream(liveContext(r.Context(), f.reg, traceID), w, rows, req.MaxRows, NegotiateCodec(r))
		return
	}
	writeBuffered(w, rows, req.MaxRows)
}

// writeBuffered answers with the buffered JSON body: rows drained to its
// end, the leading maxRows of them (all, when 0) rendered and the rest only
// counted, so row_count is the statement's whatever the cut. It owns the
// response: an error that ends the drain becomes the error body, with the
// status its kind maps to.
func writeBuffered(w http.ResponseWriter, rows *windowdb.Rows, maxRows int) {
	defer rows.Close()
	resp := queryResponse{Columns: rows.Columns(), Rows: [][]any{}}
	for rows.Next() {
		resp.RowCount++
		if maxRows > 0 && resp.RowCount > int64(maxRows) {
			resp.Truncated = true
			continue
		}
		row := rows.Row()
		out := make([]any, len(row))
		for j, v := range row {
			out[j] = JSONValue(v)
		}
		resp.Rows = append(resp.Rows, out)
	}
	if err := rows.Err(); err != nil {
		writeFailure(w, err)
		return
	}
	if m := rows.Metrics(); m != nil {
		resp.Route, resp.ShardsUsed = m.Route, m.ShardsUsed
		resp.ElapsedMillis = float64(m.Elapsed) / float64(time.Millisecond)
		resp.QueuedMillis = float64(m.Queued) / float64(time.Millisecond)
		resp.CacheHit, resp.SharedScan = m.CacheHit, m.SharedScan
		resp.Chain, resp.FinalSort = m.Chain, m.FinalSort
		resp.BlocksRead, resp.BlocksWritten = m.BlocksRead, m.BlocksWritten
		resp.TraceID = m.TraceID
	}
	writeJSON(w, http.StatusOK, resp)
}

// JSONValue maps a storage value to its natural JSON representation (the
// human-facing /query row encoding; the lossless tagged encoding is
// WireValue). JSON has no NaN or infinity, so a non-finite FLOAT renders
// as the string "NaN", "+Inf" or "-Inf".
func JSONValue(v storage.Value) any {
	switch v.Kind() {
	case storage.KindNull:
		return nil
	case storage.KindInt:
		return v.Int64()
	case storage.KindFloat:
		f := v.Float64()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nonFinite(f)
		}
		return f
	case storage.KindString:
		return v.Str()
	default:
		return v.String()
	}
}

// liveContext attaches the registered query's live counters to the
// context a stream writer runs under, so wire bytes account to the owning
// registry entry. The stream outlives the registration window by one
// trailer write at most; a post-deregistration add on the Live is
// harmless.
func liveContext(ctx context.Context, reg *trace.Registry, traceID string) context.Context {
	if e := reg.Get(traceID); e != nil {
		ctx = trace.WithLive(ctx, e.Live())
	}
	return ctx
}

// healthBody is the /healthz response body: alive plus enough identity —
// build version, the /query stream codecs, the front end's role — for one
// probe to say what it reached.
type healthBody struct {
	Status  string   `json:"status"`
	Version string   `json:"version"`
	Codecs  []string `json:"codecs"`
	// Role is "engine" for a public single-engine server, "shardnode"
	// when the /shard/* surface is mounted, "coordinator" for a cluster
	// front end.
	Role string `json:"role"`
}

// buildVersion reports this binary's module version (or VCS revision)
// from the embedded build info — "unknown" outside module builds.
func buildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	version := bi.Main.Version
	var rev, dirty string
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			rev = kv.Value
		case "vcs.modified":
			if kv.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	if rev != "" {
		short := rev
		if len(short) > 12 {
			short = short[:12]
		}
		if version == "" || version == "(devel)" {
			return short + dirty
		}
		// Pseudo-versions already embed the revision (and "+dirty" when
		// modified); don't repeat either marker.
		if strings.Contains(version, short) {
			if strings.Contains(version, "dirty") {
				return version
			}
			return version + dirty
		}
		return version + "+" + short + dirty
	}
	if version == "" {
		return "unknown"
	}
	return version
}
