package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro"
	"repro/internal/attrs"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/trace"
)

// Shard-side HTTP surface: the routes a windserve process exposes so a
// cluster coordinator (internal/shard) can use it as a shard node. The
// routes mount only under Config.ShardRoutes (windserve -shardnode).
//
//	POST /shard/query        {"sql": "...", "mode": "full"|"segment", stage...} (row stream)
//	POST /shard/register     (frame body: the table's name, columns and rows)
//	GET  /shard/distinct?table=t&attrs=3,4
//	POST /shard/shuffle/run  {ShuffleRunRequest}
//	POST /shard/shuffle      (peer row stream — node-to-node)
//	POST /shard/shuffle/drop {"shuffle_id": "..."}
//
// /shard/query serves every node stream (ShardStream) and always answers
// with the row stream of stream.go as binary frames, whatever the Accept.
// /shard/register installs a table partition (or replica) into the node's
// engine from one frame body (framebody.go) — like every route here it is
// an intra-cluster interface: deploy shard nodes behind the cluster
// boundary, not on the public edge.
// /shard/distinct answers a distinct count for the coordinator's
// statistics stubs. Every statement over a sharded table runs as stages of
// the coordinator's plan (Stage): "run" executes one stage before the last
// (RunShuffleStep), the bare route ingests a peer's re-shuffled rows into
// the node's inbox — node-to-node traffic that never transits the
// coordinator — and the last stage streams back through /shard/query. A
// statement whose chain the shard key covers has no stage before the last.

// Stage is one stage of a statement over a sharded table as a node runs it:
// the coordinator's plan bound onto the statement (sql.Prepared.Bind), the
// segment of it the stage runs and where the stage's rows come from. A
// ShuffleRunRequest carries a stage before the last, a "segment"
// ShardQueryRequest the last.
type Stage struct {
	SQL string `json:"sql"`
	// Plan is the coordinator's planned chain, nil for a window-less
	// statement: every node runs its steps verbatim, cut by exec.Segments.
	Plan *core.Plan `json:"plan,omitempty"`
	// Segment is the segment the stage runs, or -1 for the raw stage: WHERE
	// filtering only — the base rows shuffled onto the first segment's key
	// when the shard key does not cover it, or a window-less statement's one
	// stage.
	Segment int `json:"segment"`
	// Source is "local" (the node's registered partition) or "inbox" (the
	// shuffle buffer the previous round delivered).
	Source string `json:"source"`
	// ShuffleID names the statement's shuffle state on every node; empty
	// when no stage precedes the last.
	ShuffleID string `json:"shuffle_id,omitempty"`
	// Round is the stage index: the inbox generation an "inbox" stage
	// consumes; a stage before the last delivers its output to Round+1.
	Round int `json:"round,omitempty"`
	// Senders is the cluster width: the expected sender count of every
	// inbox buffer and the partition count of a shuffled stage's output.
	Senders int `json:"senders,omitempty"`
}

// ShardQueryRequest asks a shard node for a row stream.
type ShardQueryRequest struct {
	// Mode is "full" (the entire statement, planned by the node: a
	// replicated table's query or a SUBSCRIBE) or "segment" (the last stage
	// of a statement over a sharded table, run on the shipped plan).
	Mode string `json:"mode"`
	Stage
}

// errBadRequest marks a malformed node request; statusFor answers it 400.
var errBadRequest = errors.New("service: bad request")

// ErrRefused marks a stage or a delivery of its coordinator's statement
// that a node refuses: a stage the shipped plan does not have, a plan that
// does not bind, a delivery into a dropped shuffle or out of turn, an
// incomplete inbox. It is a coordination fault, not the end client's:
// statusFor answers it 500, kind "refused", on a node and on the
// coordinator's front end alike, and a RemoteError of that kind unwraps to
// it.
var ErrRefused = errors.New("service: node refused the stage")

// ShardStream serves one of a cluster coordinator's node streams, by mode:
// "full" the entire statement — a replicated table's query, or a
// SUBSCRIBE's live cursor — and "segment" the last stage of the shipped
// plan. Both transports reach it: the in-process one directly, the HTTP one
// through /shard/query.
func (s *Service) ShardStream(ctx context.Context, req ShardQueryRequest) (*windowdb.Rows, error) {
	switch req.Mode {
	case "full":
		return s.QueryContext(ctx, req.SQL)
	case "segment":
		return s.streamSegment(ctx, req.Stage)
	}
	return nil, fmt.Errorf("%w: unknown shard query mode %q", errBadRequest, req.Mode)
}

// registerHeader is the header frame of a /shard/register body: the name
// the table is installed under and its typed columns.
type registerHeader struct {
	Table string `json:"table"`
	streamHeader
}

// encodeRegister encodes the /shard/register body that installs t as name.
func encodeRegister(name string, t *storage.Table) ([]byte, error) {
	arity := t.Schema.Len()
	hdr := registerHeader{Table: name, streamHeader: streamHeader{Columns: WireColumns(t.Schema.Columns)}}
	return encodeFrameBody(&hdr, t.Len(), &stream.Batch{}, func(b *stream.Batch, off, k int) error {
		return b.FillTuples(t.Rows[off:off+k], arity)
	})
}

// SendRegisterHTTP installs t on a node as name: one frame body to its
// /shard/register route, the rows as /append and /shard/shuffle carry them.
func SendRegisterHTTP(ctx context.Context, hc *http.Client, base, name string, t *storage.Table) error {
	body, err := encodeRegister(name, t)
	if err != nil {
		return err
	}
	resp, err := postBody(ctx, hc, base+"/shard/register", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

// ShardDistinctResponse is a shard-local distinct count.
type ShardDistinctResponse struct {
	Count int64 `json:"count"`
}

func (s *Service) handleShardQuery(w http.ResponseWriter, r *http.Request) {
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
		writeFailure(w, err)
		return
	}
	WriteStream(liveContext(r.Context(), s.reg, traceID), w, rows, 0, CodecBinary)
}

// handleShardRegister installs the table a frame body carries. A body that
// does not declare itself frames is a 415, unread; one that does not decode,
// names no table or types a column unknown is a 400.
func (s *Service) handleShardRegister(w http.ResponseWriter, r *http.Request) {
	if !strings.Contains(r.Header.Get("Content-Type"), ContentTypeBinary) {
		writeError(w, http.StatusUnsupportedMediaType, "request", fmt.Errorf("service: a registered table is %s", ContentTypeBinary))
		return
	}
	var (
		hdr  registerHeader
		rows []storage.Tuple
	)
	_, err := readFrameBody(r.Body, &hdr, func(batch []storage.Tuple) error {
		rows = append(rows, batch...)
		return nil
	})
	if err == nil && hdr.Table == "" {
		err = errors.New("service: register needs a table name")
	}
	var cols []storage.Column
	if err == nil {
		cols, err = DecodeColumns(hdr.Columns)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "request", err)
		return
	}
	t := storage.NewTable(storage.NewSchema(cols...))
	t.Rows = rows
	s.eng.Register(hdr.Table, t)
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
		writeFailure(w, err)
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
