package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"repro"
	"repro/internal/attrs"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/trace"
)

// HTTP reaches a shard node over the /shard/* routes of its windserve
// process, so multiple processes form a real cluster. Safe for concurrent
// use (http.Client is). Every row that crosses — node
// streams, shuffle deliveries, appends, registered tables — rides the binary columnar frame
// codec, the node planes' only one.
type HTTP struct {
	base   string
	client *http.Client
}

// NewHTTP builds a transport for a node address ("host:port" or a full
// http:// URL). A nil client uses http.DefaultClient.
func NewHTTP(addr string, client *http.Client) *HTTP {
	base := strings.TrimRight(addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTP{base: base, client: client}
}

// NewHTTPCodec is NewHTTP.
//
// Deprecated: the node planes have one codec and the argument is ignored.
// It stays only because the frozen benchmark/ harness calls it, and goes
// when that may next be edited.
func NewHTTPCodec(addr string, client *http.Client, _ service.WireCodec) *HTTP {
	return NewHTTP(addr, client)
}

// Addr returns the node's base URL.
func (h *HTTP) Addr() string { return h.base }

// do runs one JSON round trip; a non-2xx response decodes into a
// *service.RemoteError.
func (h *HTTP) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("shard %s: encode request: %w", h.base, err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, h.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id := trace.FromContext(ctx); id != "" {
		req.Header.Set(trace.HeaderTraceID, id)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return fmt.Errorf("shard %s: %w", h.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return service.DecodeRemoteError(h.base, resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("shard %s: decode response: %w", h.base, err)
	}
	return nil
}

// stream opens one of the node's row streams (a JSON request body in, WCF1
// frames out) as the cursor over it: rows decode one frame at a time, so
// the coordinator's resident state per node is bounded by the wire batch
// plus the transport's read buffer.
func (h *HTTP) stream(ctx context.Context, path string, body any) (*windowdb.Rows, error) {
	sr, err := service.OpenStream(ctx, h.client, h.base+path, body, service.CodecBinary)
	if err != nil {
		return nil, err
	}
	return windowdb.NewRows(sr), nil
}

// QueryStream implements Transport over the node's /shard/query stream. A
// SUBSCRIBE rides it too: the node frames and flushes every batch, and a
// live cursor's batches are single delta rows, so none parks behind a fill
// buffer while the stream idles between appends.
func (h *HTTP) QueryStream(ctx context.Context, req service.ShardQueryRequest) (*windowdb.Rows, error) {
	return h.stream(ctx, "/shard/query", req)
}

// ShuffleRun implements Transport: one buffered JSON control round trip;
// the heavy row traffic the stage produces flows node-to-node over the
// peers' own /shard/shuffle routes, never through this connection.
func (h *HTTP) ShuffleRun(ctx context.Context, req service.ShuffleRunRequest) (*service.ShuffleRunResult, error) {
	var res service.ShuffleRunResult
	if err := h.do(ctx, http.MethodPost, "/shard/shuffle/run", req, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// AcceptShuffle implements Transport: the body POSTed to the node's
// /shard/shuffle ingest route.
func (h *HTTP) AcceptShuffle(ctx context.Context, b *service.ShuffleBatch) error {
	return service.SendShuffleHTTP(ctx, h.client, h.base, b)
}

// ShuffleDrop implements Transport.
func (h *HTTP) ShuffleDrop(ctx context.Context, id string) error {
	return h.do(ctx, http.MethodPost, "/shard/shuffle/drop", map[string]string{"shuffle_id": id}, nil)
}

// Register implements Transport: the table POSTed as frames to the node's
// /shard/register route.
func (h *HTTP) Register(ctx context.Context, name string, t *storage.Table) error {
	return service.SendRegisterHTTP(ctx, h.client, h.base, name, t)
}

// Append implements Transport: the batch POSTed as frames to the node's
// /append route, carrying the coordinator's watermark so the node's data
// generation converges on it.
func (h *HTTP) Append(ctx context.Context, table string, rows []storage.Tuple, watermark uint64) (service.AppendResponse, error) {
	return service.SendAppendHTTP(ctx, h.client, h.base, table, rows, watermark)
}

// Distinct implements Transport.
func (h *HTTP) Distinct(ctx context.Context, table string, set attrs.Set) (int64, error) {
	var resp service.ShardDistinctResponse
	path := "/shard/distinct?table=" + url.QueryEscape(table) + "&attrs=" + service.FormatAttrSet(set)
	if err := h.do(ctx, http.MethodGet, path, nil, &resp); err != nil {
		return 0, err
	}
	return resp.Count, nil
}

// Stats implements Transport.
func (h *HTTP) Stats(ctx context.Context) (service.Snapshot, error) {
	var snap service.Snapshot
	err := h.do(ctx, http.MethodGet, "/stats", nil, &snap)
	return snap, err
}

// LiveQueries implements Transport.
func (h *HTTP) LiveQueries(ctx context.Context) ([]trace.QueryInfo, error) {
	var infos []trace.QueryInfo
	if err := h.do(ctx, http.MethodGet, "/debug/queries", nil, &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// KillQuery implements Transport. A node that holds no such query answers
// 404, which is not an error here — the coordinator fans the kill out to
// every node and only cares whether anyone held it.
func (h *HTTP) KillQuery(ctx context.Context, id string) (bool, error) {
	var resp service.KillResponse
	err := h.do(ctx, http.MethodDelete, "/debug/queries/"+url.PathEscape(id), nil, &resp)
	if err != nil {
		var re *service.RemoteError
		if errors.As(err, &re) && re.Status == http.StatusNotFound {
			return false, nil
		}
		return false, err
	}
	return resp.Killed, nil
}

// Health implements Transport.
func (h *HTTP) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return fmt.Errorf("shard %s: %w", h.base, err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard %s: health %s", h.base, resp.Status)
	}
	return nil
}
