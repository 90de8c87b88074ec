package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/storage"
	"repro/internal/trace"
)

// The HTTP spelling of the shuffle data plane: /shard/shuffle/run executes
// one stage on a node, and the bare /shard/shuffle route is the
// node-to-node row exchange — one frame body (framebody.go) per (sender,
// receiver, round). Rows go straight from the wire into the receiver's
// inbox buffer; neither side materializes a request or response body.

// shuffleHeader is the header frame of a peer shuffle stream.
type shuffleHeader struct {
	ShuffleID string `json:"shuffle_id"`
	Round     int    `json:"round"`
	Sender    int    `json:"sender"`
	streamHeader
}

// SendShuffleHTTP delivers one shuffle batch to a peer node's
// /shard/shuffle route as a streamed POST of frames. The cluster's HTTP
// transport and the shard-node handler's peer sender both use it.
func SendShuffleHTTP(ctx context.Context, hc *http.Client, base string, b *ShuffleBatch) error {
	hdr := shuffleHeader{
		ShuffleID: b.ID, Round: b.Round, Sender: b.Sender,
		streamHeader: streamHeader{Columns: WireColumns(b.Cols)},
	}
	resp, err := postFrames(ctx, hc, base+"/shard/shuffle", hdr, b.Rows, len(b.Cols))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

// handleShuffleRun executes one shuffle stage, delivering the re-shuffled
// output directly to the peer addresses the request names (self-deliveries
// skip the socket).
func (s *Service) handleShuffleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, "request", errors.New("service: POST a ShuffleRunRequest"))
		return
	}
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
	send := func(ctx context.Context, peer int, b *ShuffleBatch) error {
		if peer == req.Self {
			return s.ShuffleAccept(ctx, b)
		}
		if peer < 0 || peer >= len(req.Peers) || req.Peers[peer] == "" {
			return fmt.Errorf("service: no address for shuffle peer %d", peer)
		}
		return SendShuffleHTTP(ctx, s.cfg.PeerClient, req.Peers[peer], b)
	}
	res, err := s.RunShuffleStep(r.Context(), req, send)
	if err != nil {
		status, kind := StatusFor(err)
		writeError(w, status, kind, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleShuffleIngest receives one peer's shuffle stream, decoding rows
// incrementally into the inbox. The sender is registered complete only
// when the trailer arrives with the right row count — a cut stream leaves
// the buffer incomplete, which the consuming stage reports. A body that
// does not declare itself frames is refused unread.
func (s *Service) handleShuffleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, "request", errors.New("service: POST a shuffle stream"))
		return
	}
	if !strings.Contains(r.Header.Get("Content-Type"), ContentTypeBinary) {
		writeError(w, http.StatusUnsupportedMediaType, "request", fmt.Errorf("service: a shuffle stream is %s", ContentTypeBinary))
		return
	}
	var hdr shuffleHeader
	n, err := readFrameBody(r.Body, &hdr, func(rows []storage.Tuple) error {
		return s.appendShuffle(hdr.ShuffleID, hdr.Round, hdr.arity(), rows)
	})
	if err == nil {
		err = s.finishShuffle(hdr.ShuffleID, hdr.Round, hdr.Sender, hdr.arity())
	}
	if err != nil {
		status, kind := http.StatusBadRequest, "request"
		if errors.Is(err, ErrRefused) {
			status, kind = StatusFor(err)
		}
		writeError(w, status, kind, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "rows": n})
}

// handleShuffleDrop discards a query's buffered shuffle state: the
// coordinator's cleanup after a failed or abandoned shuffle.
func (s *Service) handleShuffleDrop(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, "request", errors.New("service: POST a drop request"))
		return
	}
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
