package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/trace"
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
	query string // base + "/query"
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
	return &Client{base: base, query: base + "/query", hc: hc, codec: codec}
}

// Addr returns the server's base URL.
func (c *Client) Addr() string { return c.base }

// QueryContext executes src on the server and returns a cursor over the
// response stream.
func (c *Client) QueryContext(ctx context.Context, src string) (*windowdb.Rows, error) {
	q := queryRequest{SQL: src, Stream: true}
	body := q.appendJSON(make([]byte, 0, len(src)+64)) // 49 bytes around src, unless it needs escapes
	sr, err := openStream(ctx, c.hc, c.query, body, c.codec)
	if err != nil {
		return nil, err
	}
	return windowdb.NewRows(sr), nil
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

// End closes the response body — on a half-read stream that is the
// disconnect the server releases its slot on — and returns the
// trailer-derived metadata, with Elapsed as this side observed it: nil when
// the stream ended before its trailer (there is nothing trustworthy to
// report about a query whose outcome the server never confirmed).
func (sr *StreamReader) End(end windowdb.Ending) *windowdb.QueryMetrics {
	_ = sr.Close()
	if !end.Completed {
		return nil
	}
	meta := metaFromTrailer(sr.Trailer())
	meta.Elapsed = time.Since(sr.start)
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
		Meta:          sql.Meta{Chain: t.Chain, FinalSort: t.FinalSort, Parallelism: 1, SharedScan: t.SharedScan},
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

// StreamReader consumes one result stream, NDJSON or binary: the client
// half of WriteStream. The codec follows the response Content-Type, not
// the request — a server that predates the frames answers a
// binary-preferring Accept with NDJSON, and that reads fine. NextBatch
// yields the rows — a binary stream's frames each decoded into the reader's
// one batch, an NDJSON stream's lines batched — and io.EOF at the trailer;
// Trailer exposes the trailer after EOF. A stream that ends without a
// trailer (a cut connection) surfaces an error instead of a silent prefix,
// and so do bytes after the trailer. A StreamReader is a windowdb.RowSource
// (End): whoever wants rows reads them through windowdb.NewRows.
//
// The reader's frame reader and batch, or its line reader, are wire
// workspace (wirework.go). They go back exactly once, at whichever comes
// first of the trailer, the error that ends the stream and Close — and a
// Close from another goroutine while NextBatch reads leaves the giving back
// to NextBatch, which the closed body ends.
type StreamReader struct {
	node  string
	body  io.ReadCloser
	start time.Time // when the request went out

	mu      sync.Mutex
	reading bool            // NextBatch is using the workspace
	closed  bool            // Close has been called
	frames  *frameRead      // binary streams, until given back
	br      *bufio.Reader   // NDJSON streams, until given back
	lines   *stream.Batcher // NDJSON streams: the lines' rows, batched

	cols    []storage.Column
	trailer *StreamTrailer // &last once the trailer has come
	last    StreamTrailer
	err     error
}

// OpenStream POSTs body as JSON to url with the stream accept header and
// returns a reader over the response stream. codec is what the request
// advertises: CodecBinary accepts the frame stream with NDJSON fallback,
// CodecJSON only NDJSON. Non-2xx responses decode into *RemoteError
// carrying the service error taxonomy.
func OpenStream(ctx context.Context, hc *http.Client, url string, reqBody any, codec WireCodec) (*StreamReader, error) {
	buf, err := json.Marshal(reqBody)
	if err != nil {
		return nil, fmt.Errorf("service: encode request: %w", err)
	}
	return openStream(ctx, hc, url, buf, codec)
}

// openStream is OpenStream over a JSON body already encoded. The body is a
// *bytes.Reader, so the request carries GetBody: the transport can send it
// again on a fresh connection when a kept-alive one was closed under it.
func openStream(ctx context.Context, hc *http.Client, url string, body []byte, codec WireCodec) (*StreamReader, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header["Content-Type"] = headerJSON
	if hc == nil {
		hc = http.DefaultClient
	}
	// Propagate the caller's trace: any stream opened under a traced
	// context — a client /query, a coordinator's scatter fan-out — carries
	// the ID so the server joins instead of minting.
	if id := trace.FromContext(ctx); id != "" {
		req.Header.Set(trace.HeaderTraceID, id)
	}
	if codec == CodecBinary {
		// Prefer binary, accept NDJSON: a server without the binary codec
		// ignores the first alternative and streams NDJSON.
		req.Header["Accept"] = headerAcceptFrames
	} else {
		req.Header["Accept"] = headerNDJSON
	}
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("service: %s: %w", url, err)
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, DecodeRemoteError(url, resp)
	}
	sr, err := wrapResponse(url, resp)
	if err != nil {
		return nil, err
	}
	sr.start = start
	return sr, nil
}

// wrapResponse builds a StreamReader over an already-issued 2xx streamed
// response, sniffing the codec from the response content type.
func wrapResponse(url string, resp *http.Response) (*StreamReader, error) {
	sr := &StreamReader{node: url, body: resp.Body, start: time.Now()}
	hdr, err := sr.readHeader(strings.Contains(resp.Header.Get("Content-Type"), ContentTypeBinary))
	if err == nil {
		var h streamHeader
		if err = decodeHeader(hdr, &h); err != nil {
			err = fmt.Errorf("service: %s: bad stream header %q: %w", url, hdr, err)
		} else {
			sr.cols, err = DecodeColumns(h.Columns)
		}
	}
	if err != nil {
		_ = sr.Close()
		return nil, err
	}
	if sr.br != nil {
		// One line per batch: the stream may be a live one, and waiting
		// for a line not sent yet would hold back the ones that were.
		sr.lines = stream.NewBatcher(len(sr.cols), 1, sr.nextLine)
	}
	return sr, nil
}

// readHeader takes the stream's workspace and reads its header: the first
// frame of a binary stream, the first line of an NDJSON one.
func (sr *StreamReader) readHeader(binary bool) ([]byte, error) {
	var (
		hdr []byte
		err error
	)
	if binary {
		sr.frames = takeFrameRead(sr.body)
		var f stream.Frame
		f, err = sr.frames.fr.Next()
		if err == nil && f.Type != stream.FrameHeader {
			err = fmt.Errorf("first frame is %c, want header", f.Type)
		}
		hdr = f.Payload
	} else {
		sr.br = takeLineReader(sr.body)
		hdr, err = readNDJSONLine(sr.br)
	}
	if err != nil {
		return nil, fmt.Errorf("service: %s: reading stream header: %w", sr.node, err)
	}
	return hdr, nil
}

// Columns returns the streamed schema from the header line.
func (sr *StreamReader) Columns() []storage.Column { return sr.cols }

// NextBatch returns the next rows, io.EOF after the trailer, or an error —
// a decode failure, a mid-stream server error from the trailer (unwrapping
// to the taxonomy sentinels via RemoteError), a truncated stream, or bytes
// after the trailer. The batch is valid until the following call.
func (sr *StreamReader) NextBatch() (*stream.Batch, error) {
	if sr.trailer != nil {
		return nil, io.EOF
	}
	if sr.err != nil {
		return nil, sr.err
	}
	if !sr.enter() {
		return nil, sr.fail(errors.New("stream closed"))
	}
	defer sr.leave()
	if sr.lines != nil {
		return sr.lines.NextBatch()
	}
	f, err := sr.frames.fr.Next()
	if err != nil {
		return nil, sr.fail(fmt.Errorf("stream cut before trailer: %w", err))
	}
	switch f.Type {
	case stream.FrameBatch:
		if err := stream.DecodeBatchInto(&sr.frames.batch, f.Payload, len(sr.cols)); err != nil {
			return nil, sr.fail(err)
		}
		return &sr.frames.batch, nil
	case stream.FrameTrailer:
		// Read on to the body's end: the connection goes back to the
		// client's pool only once the response has been read to io.EOF.
		err := sr.takeTrailer(f.Payload)
		if _, next := sr.frames.fr.Next(); next != io.EOF {
			sr.trailer = nil
			return nil, sr.fail(errors.New("bytes after the stream's trailer"))
		}
		return nil, err
	default:
		return nil, sr.fail(fmt.Errorf("unexpected %c frame mid-stream", f.Type))
	}
}

// enter claims the workspace for a read, false once the reader is closed.
func (sr *StreamReader) enter() bool {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sr.reading = !sr.closed
	return sr.reading
}

// leave ends a read, giving the workspace back if the stream is over.
func (sr *StreamReader) leave() {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sr.reading = false
	if sr.closed || sr.trailer != nil || sr.err != nil {
		sr.release()
	}
}

// release gives the workspace back, once; the caller holds mu.
func (sr *StreamReader) release() {
	if sr.frames != nil {
		giveBackFrameRead(sr.frames)
		sr.frames = nil
	}
	if sr.br != nil {
		giveBackLineReader(sr.br)
		sr.br = nil
	}
}

// nextLine is the row pull under an NDJSON stream's Batcher.
func (sr *StreamReader) nextLine() (storage.Tuple, error) {
	line, err := readNDJSONLine(sr.br)
	if err != nil {
		return nil, sr.fail(fmt.Errorf("stream cut before trailer: %w", err))
	}
	if line[0] != '[' {
		if _, next := readNDJSONLine(sr.br); next != io.EOF {
			return nil, sr.fail(errors.New("bytes after the stream's trailer"))
		}
		return nil, sr.takeTrailer(line)
	}
	t, err := decodeWireRow(line, len(sr.cols))
	if err != nil {
		return nil, sr.fail(err)
	}
	return t, nil
}

// fail records what broke the stream, named after the node it came from.
func (sr *StreamReader) fail(err error) error {
	sr.err = fmt.Errorf("service: %s: %w", sr.node, err)
	return sr.err
}

// takeTrailer takes the trailer: io.EOF, or the server's mid-stream error.
func (sr *StreamReader) takeTrailer(payload []byte) error {
	if err := sr.last.UnmarshalJSON(payload); err != nil {
		return sr.fail(fmt.Errorf("bad stream trailer %q: %w", payload, err))
	}
	if sr.last.Error != "" {
		sr.err = &RemoteError{Node: sr.node, Status: http.StatusOK, Kind: sr.last.Kind, Msg: sr.last.Error}
		return sr.err
	}
	sr.trailer = &sr.last
	return io.EOF
}

// Trailer returns the stream trailer, nil until NextBatch returned io.EOF.
func (sr *StreamReader) Trailer() *StreamTrailer { return sr.trailer }

// Close releases the underlying response body and, unless a NextBatch is
// reading, the wire workspace; closing a half-read stream is how a client
// disconnects (the server sees the write fail or the request context
// cancel, and releases its slot).
func (sr *StreamReader) Close() error {
	sr.mu.Lock()
	sr.closed = true
	if !sr.reading {
		sr.release()
	}
	sr.mu.Unlock()
	return sr.body.Close()
}
