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
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/trace"
)

// The streaming wire format: one query result as newline-delimited JSON
// (Content-Type application/x-ndjson), so a client renders — and a
// coordinator forwards — rows as they arrive instead of buffering the
// whole body. Three frame shapes, one per line:
//
//	{"columns":[{"name":"r","type":"INT"}, ...]}   header, first line
//	[{"i":"42"}, {"s":"x"}, null, ...]             one row, WireValue-tagged
//	{"done":true, "row_count":N, ...}              trailer, last line
//
// Rows use the lossless kind-tagged WireValue encoding (wire.go), so a
// streamed result decodes to exactly the values a local cursor yields —
// int64s past 2^53 included. Errors discovered after the 200 header has
// been sent arrive in the trailer as {"done":true,"error":...,"kind":...}
// with the same taxonomy kinds the buffered surface maps to HTTP statuses;
// a missing trailer means the stream was cut and the client reports a
// truncation error rather than silently serving a prefix.
//
// The public /query (engine and coordinator front ends) speaks this format
// to a streamed request (streamRequested) that did not name the binary one:
// it is the encoding a person with curl, or a client that predates the
// frames, can read. Between the processes of a cluster rows are frames only.

// ContentTypeNDJSON is the streamed response content type.
const ContentTypeNDJSON = "application/x-ndjson"

// ContentTypeBinary is the binary columnar stream content type
// (internal/stream's length-prefixed frame format: a JSON header frame,
// columnar row batches, a JSON trailer frame): every /shard/* row stream
// and pushed body, and /query's answer to a request whose Accept names it —
// a client that doesn't keeps getting NDJSON.
const ContentTypeBinary = "application/x-windowdb-frame"

// WireCodec names a streamed row encoding.
type WireCodec string

// The two wire codecs of the public /query stream.
const (
	CodecJSON   WireCodec = "json"
	CodecBinary WireCodec = "binary"
)

// streamHeader is the first NDJSON line, or the header frame: the schema.
type streamHeader struct {
	Columns []WireColumn `json:"columns"`
}

func (h *streamHeader) arity() int { return len(h.Columns) }

// StreamTrailer is the last NDJSON line: the query's outcome and serving
// observations (the streamed analogue of the buffered response's metadata
// fields, plus the error slot for mid-stream failures).
type StreamTrailer struct {
	Done  bool   `json:"done"`
	Error string `json:"error,omitempty"`
	Kind  string `json:"kind,omitempty"`

	RowCount  int64 `json:"row_count"`
	Truncated bool  `json:"truncated,omitempty"`

	// Watermark is the table data generation a SUBSCRIBE stream's output
	// was current as of when the stream ended; 0 for one-shot queries.
	Watermark uint64 `json:"watermark,omitempty"`

	ElapsedMillis float64 `json:"elapsed_ms"`
	QueuedMillis  float64 `json:"queued_ms"`
	CacheHit      bool    `json:"cache_hit"`
	// SharedScan is the shared-subplan cache disposition ("miss", "hit" or
	// "attach"); empty for executions that bypassed the cache.
	SharedScan string `json:"shared_scan,omitempty"`

	Chain      string `json:"chain,omitempty"`
	FinalSort  string `json:"final_sort,omitempty"`
	Route      string `json:"route,omitempty"`
	ShardsUsed int    `json:"shards_used,omitempty"`

	BlocksRead    int64 `json:"blocks_read"`
	BlocksWritten int64 `json:"blocks_written"`
	Comparisons   int64 `json:"comparisons"`

	// TraceID and Trace carry the query's distributed trace back to the
	// caller: the ID that names it in /debug/trace/{id}, and the span
	// subtree this node recorded. Trailer payloads are JSON in both wire
	// codecs, so the subtree travels codec-independently.
	TraceID string      `json:"trace_id,omitempty"`
	Trace   *trace.Span `json:"trace,omitempty"`
}

// trailerFor renders a cursor's post-drain metrics as the stream trailer.
func trailerFor(m *windowdb.QueryMetrics) StreamTrailer {
	t := StreamTrailer{Done: true}
	if m == nil {
		return t
	}
	t.RowCount = m.Rows
	t.Watermark = m.Watermark
	t.ElapsedMillis = float64(m.Elapsed) / float64(time.Millisecond)
	t.QueuedMillis = float64(m.Queued) / float64(time.Millisecond)
	t.CacheHit = m.CacheHit
	t.SharedScan = m.SharedScan
	t.Chain = m.Chain
	t.FinalSort = m.FinalSort
	t.Route = m.Route
	t.ShardsUsed = m.ShardsUsed
	t.BlocksRead = m.BlocksRead
	t.BlocksWritten = m.BlocksWritten
	t.Comparisons = m.Comparisons
	t.TraceID = m.TraceID
	t.Trace = m.Trace
	return t
}

// streamRequested reports whether an HTTP request asked for the streamed
// response shape, in either codec: an Accept header naming
// application/x-ndjson or application/x-windowdb-frame, or a stream=1 query
// parameter (the GET-friendly spelling).
func streamRequested(r *http.Request) bool {
	accept := r.Header.Get("Accept")
	if strings.Contains(accept, ContentTypeNDJSON) || strings.Contains(accept, ContentTypeBinary) {
		return true
	}
	v := r.URL.Query().Get("stream")
	return v == "1" || strings.EqualFold(v, "true")
}

// binaryRequested reports whether the request asked for the binary
// columnar stream: an Accept header naming application/x-windowdb-frame or
// a codec=binary query parameter.
func binaryRequested(r *http.Request) bool {
	if strings.Contains(r.Header.Get("Accept"), ContentTypeBinary) {
		return true
	}
	return strings.EqualFold(r.URL.Query().Get("codec"), string(CodecBinary))
}

// NegotiateCodec picks the response codec for a stream request: binary
// only when the client named it, NDJSON for everything else — an unknown
// or absent Accept always degrades to NDJSON, so old clients keep working
// against new servers and a new client against an old server simply never
// sees the binary content type it asked for.
func NegotiateCodec(r *http.Request) WireCodec {
	if binaryRequested(r) {
		return CodecBinary
	}
	return CodecJSON
}

// streamFlushStride is how many rows go out between explicit flushes: low
// enough that a slow consumer sees steady progress, high enough that the
// syscall cost disappears into the encoding work.
const streamFlushStride = 64

// readNDJSONLine returns the next non-empty line without its terminator.
func readNDJSONLine(br *bufio.Reader) ([]byte, error) {
	for {
		line, err := br.ReadBytes('\n')
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) > 0 {
			return trimmed, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeWireRow decodes one NDJSON row line into a tuple, validating the
// arity against the stream's schema.
func decodeWireRow(line []byte, arity int) (storage.Tuple, error) {
	var row []WireValue
	if err := json.Unmarshal(line, &row); err != nil {
		return nil, fmt.Errorf("bad stream row: %w", err)
	}
	if len(row) != arity {
		return nil, fmt.Errorf("stream row arity %d != schema arity %d", len(row), arity)
	}
	t := make(storage.Tuple, len(row))
	for i, v := range row {
		t[i] = v.V
	}
	return t, nil
}

// WriteStream serves rows as a stream in the negotiated codec and closes
// the cursor. It owns the response from the first byte: callers must not
// have written a status. maxRows > 0 truncates the stream after that many
// rows (the trailer marks it). ctx — the request context — aborts the
// stream between flushes when the client disconnects, which is what
// releases the cursor's admission slot mid-stream.
//
// What is flushed together is what the cursor's source handed over
// together: a binary stream frames every batch it pulls, an NDJSON stream
// flushes at the flush stride and wherever a batch ends. A subscription's
// batches are single rows, so each leaves as it happens — a live cursor
// blocks indefinitely between deltas, and a row parked behind a stride
// would never reach the client.
func WriteStream(ctx context.Context, w http.ResponseWriter, rows *windowdb.Rows, maxRows int, codec WireCodec) {
	if live := trace.LiveFromContext(ctx); live != nil {
		// Account response-body bytes to the owning /debug/queries entry.
		w = &liveCountingWriter{ResponseWriter: w, live: live}
	}
	defer rows.Close()
	sw := newStreamWriter(w, codec)
	defer sw.release()
	// The header leaves before the first row: a live cursor with an empty
	// initial result (an empty shard partition, say) blocks indefinitely on
	// its first row, and a client opening the stream waits on the response
	// header — without this flush the two deadlock against each other.
	if sw.header(rows.ColumnTypes()) != nil {
		return
	}
	sw.flush()

	var n int64
	truncated := false
	if codec == CodecBinary {
		for !truncated {
			b, ok := rows.NextBatch()
			if !ok {
				break
			}
			// A batch that ends exactly at maxRows goes out whole and the
			// loop comes round once more with no room left: only a further
			// row makes the result truncated, and the io.EOF a fully
			// delivered one probes into lets the source classify the query
			// as completed, not aborted.
			if left := int64(maxRows) - n; maxRows > 0 && int64(b.Len()) > left {
				truncated = true
				if left == 0 {
					break
				}
				b.Truncate(int(left))
			}
			if sw.fw.WriteBatch(b) != nil {
				return // client gone; the deferred Close releases the slot
			}
			n += int64(b.Len())
			sw.flush()
			if ctx.Err() != nil {
				return
			}
		}
	} else {
		for rows.Next() {
			if sw.row(rows.Row()) != nil {
				return
			}
			n++
			if n%streamFlushStride == 0 || rows.Buffered() == 0 {
				sw.flush()
				if ctx.Err() != nil {
					return
				}
			}
			if maxRows > 0 && n >= int64(maxRows) {
				truncated = rows.Next() // the same probe
				break
			}
		}
	}

	// Close before reading Metrics: post-drain metadata is finalized when
	// the stream ends, and a truncated drain ends it via Close.
	_ = rows.Close()
	var trailer StreamTrailer
	if err := rows.Err(); err != nil {
		_, kind := statusFor(err)
		trailer = StreamTrailer{Done: true, Error: err.Error(), Kind: kind, RowCount: n}
		// A failed stream still ships whatever spans were recorded — a
		// node dying mid-shuffle is exactly when the trace matters.
		if m := rows.Metrics(); m != nil {
			trailer.TraceID, trailer.Trace = m.TraceID, m.Trace
		}
	} else {
		trailer = trailerFor(rows.Metrics())
		trailer.RowCount = n
		trailer.Truncated = truncated
	}
	_ = sw.trailer(&trailer)
	sw.flush()
}

// streamWriter is the framing of one streamed response in either codec:
// the JSON header and trailer, as NDJSON lines or as 'H'/'T' frames, and
// the flush between. Rows go through enc (NDJSON) or fw (binary), whichever
// the codec set. fw is wire workspace: release gives it back once the
// stream is over.
type streamWriter struct {
	flusher http.Flusher
	enc     *json.Encoder
	fw      *stream.FrameWriter
	wire    []WireValue // NDJSON: the row being encoded, refilled per row
	w       io.Writer   // NDJSON: where the header and trailer lines go
	line    []byte      // NDJSON: the header or trailer line being encoded
}

func newStreamWriter(w http.ResponseWriter, codec WireCodec) *streamWriter {
	sw := &streamWriter{}
	sw.flusher, _ = w.(http.Flusher)
	if codec == CodecBinary {
		w.Header().Set("Content-Type", ContentTypeBinary)
		sw.fw = takeFrameWriter(w)
	} else {
		w.Header().Set("Content-Type", ContentTypeNDJSON)
		sw.enc = json.NewEncoder(w)
		sw.w = w
	}
	w.WriteHeader(http.StatusOK)
	return sw
}

// release gives the frame writer back; the stream writes nothing after.
func (sw *streamWriter) release() {
	if sw.fw != nil {
		giveBackFrameWriter(sw.fw)
		sw.fw = nil
	}
}

// row writes one tuple as a WireValue-tagged NDJSON array line.
func (sw *streamWriter) row(row storage.Tuple) error {
	sw.wire = sw.wire[:0]
	for _, v := range row {
		sw.wire = append(sw.wire, WireValue{V: v})
	}
	return sw.enc.Encode(&sw.wire) // a pointer: the slice itself would be boxed per row
}

func (sw *streamWriter) flush() {
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
}

// header and trailer encode their JSON (metajson.go) straight into the
// frame, or into a line that leaves in one Write, as json.Encoder's does.
func (sw *streamWriter) header(cols []storage.Column) error {
	h := streamHeader{Columns: WireColumns(cols)}
	if sw.enc != nil {
		return sw.writeLine(h.appendJSON(sw.line[:0]), nil)
	}
	return sw.fw.SendFrame(h.appendJSON(sw.fw.BeginFrame(stream.FrameHeader)))
}

func (sw *streamWriter) trailer(t *StreamTrailer) error {
	if sw.enc != nil {
		return sw.writeLine(t.AppendJSON(sw.line[:0]))
	}
	return writeTrailerFrame(sw.fw, t)
}

func (sw *streamWriter) writeLine(line []byte, err error) error {
	if err != nil {
		return err
	}
	sw.line = append(line, '\n')
	_, err = sw.w.Write(sw.line)
	return err
}

// liveCountingWriter accounts every response-body byte to the owning
// query's live counters — the wire_bytes column of /debug/queries. Its
// Flush keeps the wrapped writer's streaming behavior.
type liveCountingWriter struct {
	http.ResponseWriter
	live *trace.Live
}

func (cw *liveCountingWriter) Write(p []byte) (int, error) {
	n, err := cw.ResponseWriter.Write(p)
	cw.live.AddWireBytes(int64(n))
	return n, err
}

func (cw *liveCountingWriter) Flush() {
	if f, ok := cw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
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
// and so do bytes after the trailer. Whoever wants rows reads them through
// windowdb.Rows (Rows).
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
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
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
		req.Header.Set("Accept", ContentTypeBinary+", "+ContentTypeNDJSON)
	} else {
		req.Header.Set("Accept", ContentTypeNDJSON)
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
		err := sr.end(f.Payload)
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
		return nil, sr.end(line)
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

// end takes the trailer: io.EOF, or the server's mid-stream error.
func (sr *StreamReader) end(payload []byte) error {
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
