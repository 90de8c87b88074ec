package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro"
	"repro/internal/attrs"
	"repro/internal/core"
	"repro/internal/trace"
)

// Shard-side HTTP surface: the routes a windserve process exposes so a
// cluster coordinator (internal/shard) can use it as a shard node. The
// routes mount only under Config.ShardRoutes (windserve -shardnode).
//
//	POST /shard/query        {"sql": "...", "mode": "local"|"full"|"segment"} (row stream)
//	POST /shard/register     {"name": "t", "table": {wire table}}
//	GET  /shard/distinct?table=t&attrs=3,4
//	POST /shard/shuffle/run  {ShuffleRunRequest}
//	POST /shard/shuffle      (peer row stream — node-to-node)
//	POST /shard/shuffle/drop {"shuffle_id": "..."}
//
// /shard/query serves every node stream (ShardStream) and always answers
// with the row stream of stream.go as binary frames, whatever the Accept.
// /shard/register installs a table partition (or replica) into the node's
// engine — like every route here it is an intra-cluster interface: deploy
// shard nodes behind the cluster boundary, not on the public edge.
// /shard/distinct answers a distinct count for the coordinator's
// statistics stubs. The /shard/shuffle data-plane routes carry the
// per-segment distributed execution of every chain the shard key does not
// cover: "run" executes one stage
// (RunShuffleStep), the bare route ingests a peer's re-shuffled rows into
// the node's inbox — node-to-node traffic that never transits the
// coordinator.

// ShardQueryRequest asks a shard node to execute a statement.
type ShardQueryRequest struct {
	SQL string `json:"sql"`
	// Mode is "local" (shard-local part only), "full" (entire statement,
	// SUBSCRIBE included) or "segment" (final shuffle segment over the
	// node's inbox).
	Mode string `json:"mode"`

	// SubplanFP is the coordinator's subplan fingerprint
	// (sql.Prepared.SubplanFingerprint): the identity of the statement's
	// scan+reorder subplan, shipped so the node's shared-subplan cache
	// collides every request of one distributed statement on one scan.
	// Optional — "" lets the node derive the identity itself.
	SubplanFP string `json:"subplan_fp,omitempty"`

	// Mode "segment" only: the coordinator's planned chain and the inbox
	// generation holding the final segment's shuffled input.
	Plan      *core.Plan `json:"plan,omitempty"`
	ShuffleID string     `json:"shuffle_id,omitempty"`
	Round     int        `json:"round,omitempty"`
	Senders   int        `json:"senders,omitempty"`
}

// errBadRequest marks a malformed node request; StatusFor answers it 400.
var errBadRequest = errors.New("service: bad request")

// ShardStream serves one of a cluster coordinator's node streams, by mode:
// "local" the shard-local part of the statement (WHERE, chain, projection —
// no DISTINCT/ORDER BY/LIMIT; StreamShardLocal), "full" the entire
// statement — a replicated table's query, or a SUBSCRIBE's live cursor —
// and "segment" the final segment of the shipped plan over the node's
// shuffle inbox. Both transports reach it: the in-process one directly,
// the HTTP one through /shard/query.
func (s *Service) ShardStream(ctx context.Context, req ShardQueryRequest) (*windowdb.Rows, error) {
	switch req.Mode {
	case "local":
		return s.StreamShardLocal(ctx, req.SQL, req.SubplanFP)
	case "full":
		return s.QueryContext(ctx, req.SQL)
	case "segment":
		return s.streamSegment(ctx, req)
	}
	return nil, fmt.Errorf("%w: unknown shard query mode %q", errBadRequest, req.Mode)
}

// ShardRegisterRequest installs a table on a shard node.
type ShardRegisterRequest struct {
	Name  string    `json:"name"`
	Table WireTable `json:"table"`
}

// ShardDistinctResponse is a shard-local distinct count.
type ShardDistinctResponse struct {
	Count int64 `json:"count"`
}

func (s *Service) handleShardQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, "request", errors.New("service: POST a ShardQueryRequest"))
		return
	}
	var req ShardQueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "request", fmt.Errorf("service: bad request body: %w", err))
		return
	}
	if req.SQL == "" {
		writeError(w, http.StatusBadRequest, "request", errors.New("service: empty query"))
		return
	}
	// Join the coordinator's distributed trace: the node's span subtree
	// rides home in the stream trailer under the same ID.
	ctx := r.Context()
	traceID := r.Header.Get(trace.HeaderTraceID)
	if traceID != "" {
		ctx = trace.NewContext(ctx, traceID)
		w.Header().Set(trace.HeaderTraceID, traceID)
	}
	ctx = trace.WithClient(ctx, r.RemoteAddr)
	rows, err := s.ShardStream(ctx, req)
	if err != nil {
		status, kind := StatusFor(err)
		writeError(w, status, kind, err)
		return
	}
	WriteStream(liveContext(r.Context(), s.reg, traceID), w, rows, 0, CodecBinary)
}

func (s *Service) handleShardRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, "request", errors.New("service: POST a ShardRegisterRequest"))
		return
	}
	var req ShardRegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "request", fmt.Errorf("service: bad request body: %w", err))
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, "request", errors.New("service: register needs a table name"))
		return
	}
	t, err := req.Table.Decode()
	if err != nil {
		writeError(w, http.StatusBadRequest, "request", err)
		return
	}
	s.eng.Register(req.Name, t)
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "rows": t.Len()})
}

func (s *Service) handleShardDistinct(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("table")
	if name == "" {
		writeError(w, http.StatusBadRequest, "request", errors.New("service: pass ?table="))
		return
	}
	set, err := parseAttrSet(r.URL.Query().Get("attrs"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "request", err)
		return
	}
	entry, err := s.eng.Stats(name)
	if err != nil {
		status, kind := StatusFor(err)
		writeError(w, status, kind, err)
		return
	}
	writeJSON(w, http.StatusOK, ShardDistinctResponse{Count: entry.Distinct(set)})
}

// parseAttrSet parses a comma-separated attribute-ID list ("3,4") into a
// set. The empty string is the empty set.
func parseAttrSet(s string) (attrs.Set, error) {
	var set attrs.Set
	if s == "" {
		return set, nil
	}
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || id < 0 || id >= 64 {
			return 0, fmt.Errorf("service: bad attribute id %q", part)
		}
		set = set.Add(attrs.ID(id))
	}
	return set, nil
}

// FormatAttrSet renders a set as the comma-separated ID list
// /shard/distinct accepts; the HTTP transport uses it to build requests.
func FormatAttrSet(set attrs.Set) string {
	ids := set.IDs()
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(int(id))
	}
	return strings.Join(parts, ",")
}
