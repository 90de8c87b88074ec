package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/stream"
)

// RemoteError is a serving process's error response, preserving the
// service status taxonomy across the wire: Unwrap maps the taxonomy kind
// back to the matching sentinel, so errors.Is sees through the transport
// and front ends re-serve the original status. Both the cluster's shard
// transport and Client speak it.
type RemoteError struct {
	Node   string
	Status int
	Kind   string
	Msg    string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote %s: %s (%s)", e.Node, e.Msg, e.Kind)
}

// Unwrap maps the remote taxonomy kind to its sentinel error.
func (e *RemoteError) Unwrap() error {
	switch e.Kind {
	case "parse":
		return sql.ErrParse
	case "bind":
		return sql.ErrBind
	case "refused":
		return ErrRefused
	case "unknown_table":
		return catalog.ErrUnknownTable
	case "overloaded":
		return ErrOverloaded
	case "timeout":
		return context.DeadlineExceeded
	case "canceled":
		return context.Canceled
	}
	return nil
}

// DecodeRemoteError turns a non-2xx response into a *RemoteError, reading
// (a bounded prefix of) the body for the taxonomy payload.
func DecodeRemoteError(node string, resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
		Kind  string `json:"kind"`
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	if json.Unmarshal(msg, &e) != nil || e.Error == "" {
		e.Error = strings.TrimSpace(string(msg))
		if e.Error == "" {
			e.Error = resp.Status
		}
	}
	return &RemoteError{Node: node, Status: resp.StatusCode, Kind: e.Kind, Msg: e.Error}
}

// Client is the remote windowdb.Queryer: it speaks the streaming /query
// surface of a running windserve — single engine or cluster coordinator,
// the wire shape is the same — yielding rows incrementally as the server
// emits them. It asks for the binary columnar frame stream and accepts
// NDJSON, so it interoperates with servers of either vintage; the decoder
// follows the response content type. Closing a half-drained Rows closes
// the response body, which the server observes as a disconnect and
// releases its admission slot.
//
// A Client is safe for concurrent use (http.Client is).
type Client struct {
	base  string
	hc    *http.Client
	codec WireCodec
}

var _ windowdb.Queryer = (*Client)(nil)

// NewClient builds a client for a serving address ("host:port" or a full
// http:// URL). A nil http.Client uses http.DefaultClient.
func NewClient(addr string, hc *http.Client) *Client {
	return NewClientCodec(addr, hc, CodecBinary)
}

// NewClientCodec is NewClient with an explicit wire codec preference:
// CodecJSON pins the client to the NDJSON stream (the pre-binary wire),
// CodecBinary (the NewClient default) prefers columnar frames.
func NewClientCodec(addr string, hc *http.Client, codec WireCodec) *Client {
	base := strings.TrimRight(addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	if codec == "" {
		codec = CodecBinary
	}
	return &Client{base: base, hc: hc, codec: codec}
}

// Addr returns the server's base URL.
func (c *Client) Addr() string { return c.base }

// QueryContext executes src on the server and returns a cursor over the
// response stream.
func (c *Client) QueryContext(ctx context.Context, src string) (*windowdb.Rows, error) {
	sr, err := OpenStream(ctx, c.hc, c.base+"/query", queryRequest{SQL: src, Stream: true}, c.codec)
	if err != nil {
		return nil, err
	}
	return sr.Rows(), nil
}

// PrepareContext returns a statement bound to this client. The server
// keeps the plan in its own cache keyed by the SQL text, so preparation
// needs no round trip; validation errors surface on first execution.
func (c *Client) PrepareContext(ctx context.Context, src string) (windowdb.Stmt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return windowdb.TextStmt(c, src), nil
}

// Rows wraps the reader in the public cursor: how every consumer that
// wants rows, not batches, reads a stream. The cursor's Metrics come from
// the trailer, with Elapsed as this side observed it.
func (sr *StreamReader) Rows() *windowdb.Rows {
	return windowdb.NewRows(clientSource{sr})
}

// clientSource adapts a StreamReader to the RowSource contract.
type clientSource struct{ sr *StreamReader }

func (cs clientSource) Columns() []storage.Column { return cs.sr.Columns() }

func (cs clientSource) NextBatch() (*stream.Batch, error) { return cs.sr.NextBatch() }

// End closes the response body — on a half-read stream that is the
// disconnect the server releases its slot on — and returns the
// trailer-derived metadata: nil when the stream ended before its trailer
// (there is nothing trustworthy to report about a query whose outcome the
// server never confirmed).
func (cs clientSource) End(end windowdb.Ending) *windowdb.QueryMetrics {
	_ = cs.sr.Close()
	if !end.Completed {
		return nil
	}
	meta := metaFromTrailer(cs.sr.Trailer())
	meta.Elapsed = time.Since(cs.sr.start)
	return meta
}

// metaFromTrailer lifts a stream trailer into the public metrics shape.
// Elapsed is overwritten by the caller with the client-observed time; the
// trailer's ElapsedMillis is the server-side figure.
func metaFromTrailer(t *StreamTrailer) *windowdb.QueryMetrics {
	if t == nil {
		return &windowdb.QueryMetrics{Meta: sql.Meta{FinalSort: "none", Parallelism: 1}}
	}
	return &windowdb.QueryMetrics{
		Meta:          sql.Meta{FinalSort: t.FinalSort, Parallelism: 1, SharedScan: t.SharedScan},
		Chain:         t.Chain,
		CacheHit:      t.CacheHit,
		Route:         t.Route,
		ShardsUsed:    t.ShardsUsed,
		Queued:        time.Duration(t.QueuedMillis * float64(time.Millisecond)),
		BlocksRead:    t.BlocksRead,
		BlocksWritten: t.BlocksWritten,
		Comparisons:   t.Comparisons,
		TraceID:       t.TraceID,
		Trace:         t.Trace,
	}
}
