package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime/debug"
	"strings"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Handler returns the HTTP/JSON serving surface:
//
//	POST /query   {"sql": "...", "max_rows": 100, "timeout_ms": 5000}
//	GET  /query?q=SELECT+...
//	GET  /stats   service Snapshot as JSON
//	GET  /healthz "ok"
//
// /query answers with a buffered JSON body by default; a request carrying
// "stream":true, ?stream=1 or `Accept: application/x-ndjson` gets the
// chunked NDJSON stream instead (stream.go) — rows leave as the cursor
// yields them and the admission slot is released when the stream ends or
// the client disconnects. service.Client is the Go consumer of that shape.
//
// With Config.ShardRoutes, the /shard/* node surface (shard.go) is
// mounted too.
//
// Status taxonomy: client errors are distinguished from engine faults —
// malformed requests and parse/bind errors are 400, unknown tables 404,
// admission rejection 429, queries timed out under the server's control
// 503, everything else (a genuine engine fault) 500. Error bodies are
// {"error": "...", "kind": "..."} with kind one of request, parse, bind,
// unknown_table, overloaded, timeout, canceled, internal.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/append", s.handleAppend)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/trace/", s.handleDebugTrace)
	mux.HandleFunc("/debug/queries", s.handleDebugQueries)
	mux.HandleFunc("/debug/queries/", s.handleDebugQueries)
	if s.cfg.ShardRoutes {
		// Shard-node surface (shard.go): what a cluster coordinator
		// calls. Opt-in — register would let any client overwrite tables
		// on a public single-engine server.
		mux.HandleFunc("/shard/query", s.handleShardQuery)
		mux.HandleFunc("/shard/register", s.handleShardRegister)
		mux.HandleFunc("/shard/distinct", s.handleShardDistinct)
		mux.HandleFunc("/shard/shuffle", s.handleShuffleIngest)
		mux.HandleFunc("/shard/shuffle/run", s.handleShuffleRun)
		mux.HandleFunc("/shard/shuffle/drop", s.handleShuffleDrop)
	}
	return mux
}

type queryRequest struct {
	SQL string `json:"sql"`
	// MaxRows truncates the returned rows (the query still executes fully);
	// 0 means all rows.
	MaxRows int `json:"max_rows"`
	// TimeoutMillis bounds the query when > 0, overriding the service
	// default.
	TimeoutMillis int64 `json:"timeout_ms"`
	// Stream asks for the NDJSON streamed response (stream.go) instead of
	// the buffered JSON body; `Accept: application/x-ndjson` and `?stream=1`
	// are equivalent spellings.
	Stream bool `json:"stream,omitempty"`
	// Subscribe turns the statement into a SUBSCRIBE (prepending the verb
	// if the SQL doesn't already carry it) and implies Stream: the response
	// is the live delta stream, flushed row by row. `?subscribe=1` is the
	// GET spelling.
	Subscribe bool `json:"subscribe,omitempty"`
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

// StatusFor maps a serving error to its HTTP status and taxonomy kind.
// Exported so the cluster coordinator's front end (internal/shard) serves
// the same taxonomy.
func StatusFor(err error) (int, string) {
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

// WriteJSON answers with body as JSON; every front end's routes answer
// through it.
func WriteJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// WriteError answers with the {"error", "kind"} body.
func WriteError(w http.ResponseWriter, status int, kind string, err error) {
	WriteJSON(w, status, errorResponse{Error: err.Error(), Kind: kind})
}

// WriteFailure answers err with the status and kind StatusFor maps it to.
func WriteFailure(w http.ResponseWriter, err error) {
	status, kind := StatusFor(err)
	WriteError(w, status, kind, err)
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	ServeQuery(w, r, s, s.reg)
}

// ServeQuery is the /query route of every front end — the single engine's
// and the cluster coordinator's: decode the request, join or start the
// trace, open q's cursor, and answer with the stream (WriteStream, in the
// codec the request's own Accept or ?codec= names — NegotiateCodec) or the
// buffered body (WriteBuffered) as the request asked. reg is the front
// end's registry, where the statement's live counters are found for the
// stream's wire bytes.
func ServeQuery(w http.ResponseWriter, r *http.Request, q windowdb.Queryer, reg *trace.Registry) {
	var req queryRequest
	switch r.Method {
	case http.MethodGet:
		req.SQL = r.URL.Query().Get("q")
	case http.MethodPost:
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			WriteError(w, http.StatusBadRequest, "request", fmt.Errorf("service: bad request body: %w", err))
			return
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		WriteError(w, http.StatusMethodNotAllowed, "request", errors.New("service: use GET ?q= or POST JSON"))
		return
	}
	if req.SQL == "" {
		WriteError(w, http.StatusBadRequest, "request", errors.New("service: empty query: pass ?q= or a JSON body with \"sql\""))
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

	rows, err := q.QueryContext(ctx, req.SQL)
	if err != nil {
		WriteFailure(w, err)
		return
	}
	if req.Stream || StreamRequested(r) {
		WriteStream(liveContext(r.Context(), reg, traceID), w, rows, req.MaxRows, NegotiateCodec(r))
		return
	}
	WriteBuffered(w, rows, req.MaxRows)
}

// WriteBuffered answers with the buffered JSON body: rows drained to its
// end, the leading maxRows of them (all, when 0) rendered and the rest only
// counted, so row_count is the statement's whatever the cut. It owns the
// response: an error that ends the drain becomes the error body, with the
// status its kind maps to.
func WriteBuffered(w http.ResponseWriter, rows *windowdb.Rows, maxRows int) {
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
		WriteFailure(w, err)
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
	WriteJSON(w, http.StatusOK, resp)
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

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
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

// Health is the /healthz response body: alive plus enough identity —
// build version, the /query stream codecs, shard role — for one probe to
// say what it reached.
type Health struct {
	Status  string   `json:"status"`
	Version string   `json:"version"`
	Codecs  []string `json:"codecs"`
	// Role is "engine" for a public single-engine server, "shardnode"
	// when the /shard/* surface is mounted, "coordinator" for a cluster
	// front end.
	Role string `json:"role"`
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, Health{Status: "ok", Version: BuildVersion(), Role: s.role,
		Codecs: []string{string(CodecBinary), string(CodecJSON)}})
}

// BuildVersion reports this binary's module version (or VCS revision)
// from the embedded build info — "unknown" outside module builds.
func BuildVersion() string {
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
