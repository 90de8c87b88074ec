package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
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

// Header values the service sends unchanged on every request or response.
// They are assigned into the header map rather than Set, which allocates a
// one-element slice per call; each has len == cap, so an Add to the same
// key copies the slice rather than writing into it.
var (
	headerJSON         = []string{"application/json"}
	headerNDJSON       = []string{ContentTypeNDJSON}
	headerBinary       = []string{ContentTypeBinary}
	headerAcceptFrames = []string{ContentTypeBinary + ", " + ContentTypeNDJSON}
)

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
		w.Header()["Content-Type"] = headerBinary
		sw.fw = takeFrameWriter(w)
	} else {
		w.Header()["Content-Type"] = headerNDJSON
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
