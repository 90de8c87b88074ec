package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/trace"
)

// The HTTP spelling of the shuffle data plane: /shard/shuffle/run executes
// one stage on a node, and the bare /shard/shuffle route is the
// node-to-node row exchange — one frame body (framebody.go) per (sender,
// receiver, round), the bytes the stage encoded, which the receiver reads
// with ShuffleIngest like an in-process delivery.

// shuffleHeader is the header frame of a peer shuffle stream.
type shuffleHeader struct {
	ShuffleID string `json:"shuffle_id"`
	Round     int    `json:"round"`
	Sender    int    `json:"sender"`
	streamHeader
}

// SendShuffleHTTP POSTs one shuffle batch's body to a peer node's
// /shard/shuffle route. The cluster's HTTP transport and the shard-node
// handler's peer sender both use it.
func SendShuffleHTTP(ctx context.Context, hc *http.Client, base string, b *ShuffleBatch) error {
	resp, err := postBody(ctx, hc, base+"/shard/shuffle", b.Body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

// handleShuffleRun executes one shuffle stage, delivering the re-shuffled
// output directly to the peer addresses the request names (a
// self-delivery skips the socket for ShuffleIngest).
func (s *Service) handleShuffleRun(w http.ResponseWriter, r *http.Request) {
	var req ShuffleRunRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "request", fmt.Errorf("service: bad request body: %w", err))
		return
	}
	// The trace ID rides in the request body on this route; fall back to
	// the header so hand-built curls still join a trace.
	if req.TraceID == "" {
		req.TraceID = r.Header.Get(trace.HeaderTraceID)
	}
	req.Deliver = func(ctx context.Context, peer int, b *ShuffleBatch) error {
		if peer == req.Self {
			return s.ShuffleIngest(ctx, bytes.NewReader(b.Body))
		}
		if peer < 0 || peer >= len(req.Peers) || req.Peers[peer] == "" {
			return fmt.Errorf("service: no address for shuffle peer %d", peer)
		}
		return SendShuffleHTTP(ctx, s.cfg.PeerClient, req.Peers[peer], b)
	}
	res, err := s.RunShuffleStep(r.Context(), req)
	if err != nil {
		writeFailure(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleShuffleIngest receives one peer's frame body into the inbox
// (ShuffleIngest): a body that does not decode, or that the inbox refuses,
// is a 500 refused and leaves the inbox as it was. A body that does not
// declare itself frames is a 415, unread.
func (s *Service) handleShuffleIngest(w http.ResponseWriter, r *http.Request) {
	if !strings.Contains(r.Header.Get("Content-Type"), ContentTypeBinary) {
		writeError(w, http.StatusUnsupportedMediaType, "request", fmt.Errorf("service: a shuffle stream is %s", ContentTypeBinary))
		return
	}
	if err := s.ShuffleIngest(r.Context(), r.Body); err != nil {
		writeFailure(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// handleShuffleDrop discards a query's buffered shuffle state: the
// coordinator's cleanup after a failed or abandoned shuffle.
func (s *Service) handleShuffleDrop(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ShuffleID string `json:"shuffle_id"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "request", fmt.Errorf("service: bad request body: %w", err))
		return
	}
	if req.ShuffleID == "" {
		writeError(w, http.StatusBadRequest, "request", errors.New("service: drop needs a shuffle_id"))
		return
	}
	s.ShuffleDrop(req.ShuffleID)
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}
