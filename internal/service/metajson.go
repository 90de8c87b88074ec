package service

import (
	"errors"
	"strconv"
	"strings"

	"repro/internal/jsontext"
	"repro/internal/stream"
	"repro/internal/trace"
)

// The JSON of a stream's metadata frames — the header line or 'H' frame,
// the trailer line or 'T' frame, and a pushed body's header — written by
// hand: each type appends exactly the bytes encoding/json writes for its
// struct tags (field order, omitempty, escaping, float format), so the wire
// is what it was, and decodes through jsontext without reflection. The
// trailer's span tree is trace's own codec.

// AppendJSON appends the trailer's JSON to dst, byte for byte what
// encoding/json writes for it; it fails only where encoding/json does, on a
// NaN or infinite float.
func (t *StreamTrailer) AppendJSON(dst []byte) ([]byte, error) {
	var err error
	dst = append(dst, `{"done":`...)
	dst = strconv.AppendBool(dst, t.Done)
	dst = appendOmitString(dst, `,"error":`, t.Error)
	dst = appendOmitString(dst, `,"kind":`, t.Kind)
	dst = append(dst, `,"row_count":`...)
	dst = strconv.AppendInt(dst, t.RowCount, 10)
	if t.Truncated {
		dst = append(dst, `,"truncated":true`...)
	}
	if t.Watermark != 0 {
		dst = append(dst, `,"watermark":`...)
		dst = strconv.AppendUint(dst, t.Watermark, 10)
	}
	dst = append(dst, `,"elapsed_ms":`...)
	if dst, err = jsontext.AppendFloat(dst, t.ElapsedMillis); err != nil {
		return dst, err
	}
	dst = append(dst, `,"queued_ms":`...)
	if dst, err = jsontext.AppendFloat(dst, t.QueuedMillis); err != nil {
		return dst, err
	}
	dst = append(dst, `,"cache_hit":`...)
	dst = strconv.AppendBool(dst, t.CacheHit)
	dst = appendOmitString(dst, `,"shared_scan":`, t.SharedScan)
	dst = appendOmitString(dst, `,"chain":`, t.Chain)
	dst = appendOmitString(dst, `,"final_sort":`, t.FinalSort)
	dst = appendOmitString(dst, `,"route":`, t.Route)
	if t.ShardsUsed != 0 {
		dst = append(dst, `,"shards_used":`...)
		dst = strconv.AppendInt(dst, int64(t.ShardsUsed), 10)
	}
	dst = append(dst, `,"blocks_read":`...)
	dst = strconv.AppendInt(dst, t.BlocksRead, 10)
	dst = append(dst, `,"blocks_written":`...)
	dst = strconv.AppendInt(dst, t.BlocksWritten, 10)
	dst = append(dst, `,"comparisons":`...)
	dst = strconv.AppendInt(dst, t.Comparisons, 10)
	dst = appendOmitString(dst, `,"trace_id":`, t.TraceID)
	if t.Trace != nil {
		dst = append(dst, `,"trace":`...)
		if dst, err = t.Trace.AppendJSON(dst); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// appendOmitString appends an omitempty string member, key being its
// leading comma, name and colon.
func appendOmitString(dst []byte, key, v string) []byte {
	if v == "" {
		return dst
	}
	return jsontext.AppendString(append(dst, key...), v)
}

var trailerFields = []string{"done", "error", "kind", "row_count", "truncated", "watermark",
	"elapsed_ms", "queued_ms", "cache_hit", "shared_scan", "chain", "final_sort", "route",
	"shards_used", "blocks_read", "blocks_written", "comparisons", "trace_id", "trace"}

var errDuplicateTrace = errors.New("service: trailer carries two traces")

// UnmarshalJSON decodes a trailer as encoding/json would into t, refusing
// only a second non-null "trace", which encoding/json would merge into the
// first. The payload is copied into one string that the trailer's strings
// and its span tree share (trace.DecodeSpan).
func (t *StreamTrailer) UnmarshalJSON(data []byte) error {
	d := jsontext.NewDecoder(string(data))
	if !d.Object() {
		return d.End()
	}
	for d.More('}') {
		switch jsontext.Field(d.Key(), trailerFields) {
		case "done":
			d.Bool(&t.Done)
		case "error":
			d.String(&t.Error)
		case "kind":
			d.String(&t.Kind)
		case "row_count":
			d.Int64(&t.RowCount)
		case "truncated":
			d.Bool(&t.Truncated)
		case "watermark":
			d.Uint64(&t.Watermark)
		case "elapsed_ms":
			d.Float64(&t.ElapsedMillis)
		case "queued_ms":
			d.Float64(&t.QueuedMillis)
		case "cache_hit":
			d.Bool(&t.CacheHit)
		case "shared_scan":
			d.String(&t.SharedScan)
		case "chain":
			d.String(&t.Chain)
		case "final_sort":
			d.String(&t.FinalSort)
		case "route":
			d.String(&t.Route)
		case "shards_used":
			d.Int(&t.ShardsUsed)
		case "blocks_read":
			d.Int64(&t.BlocksRead)
		case "blocks_written":
			d.Int64(&t.BlocksWritten)
		case "comparisons":
			d.Int64(&t.Comparisons)
		case "trace_id":
			d.String(&t.TraceID)
		case "trace":
			switch {
			case d.Null():
				t.Trace = nil
			case t.Trace != nil:
				d.Fail(errDuplicateTrace)
			default:
				t.Trace = trace.DecodeSpan(&d)
			}
		default:
			d.Skip()
		}
	}
	return d.End()
}

// writeTrailerFrame encodes t straight into fw's 'T' frame.
func writeTrailerFrame(fw *stream.FrameWriter, t *StreamTrailer) error {
	buf, err := t.AppendJSON(fw.BeginFrame(stream.FrameTrailer))
	if err != nil {
		return err
	}
	return fw.SendFrame(buf)
}

// metaHeader is a header payload: a stream's (streamHeader) or a pushed
// body's (registerHeader, shuffleHeader), each with the columns.
type metaHeader interface {
	arity() int
	appendJSON(dst []byte) []byte
}

// decodeHeader decodes a header payload into h as encoding/json would,
// refusing only a second non-null "columns", which encoding/json would
// merge into the first.
func decodeHeader(payload []byte, h metaHeader) error {
	d := jsontext.NewDecoder(string(payload))
	if d.Object() {
		for d.More('}') {
			key := d.Key()
			// Dispatched by type, not through the interface: handed to an
			// interface method, d would cost every stream an allocation.
			switch h := h.(type) {
			case *streamHeader:
				h.decodeMember(&d, key)
			case *registerHeader:
				h.decodeMember(&d, key)
			case *shuffleHeader:
				h.decodeMember(&d, key)
			default:
				panic("service: a header type without a JSON decoder")
			}
		}
	}
	return d.End()
}

func (h *streamHeader) appendJSON(dst []byte) []byte {
	return append(appendColumns(append(dst, `{"columns":`...), h.Columns), '}')
}

var headerFields = []string{"columns"}

func (h *streamHeader) decodeMember(d *jsontext.Decoder, key string) {
	if jsontext.Field(key, headerFields) == "columns" {
		decodeColumns(d, &h.Columns)
	} else {
		d.Skip()
	}
}

func (h *registerHeader) appendJSON(dst []byte) []byte {
	dst = jsontext.AppendString(append(dst, `{"table":`...), h.Table)
	return append(appendColumns(append(dst, `,"columns":`...), h.Columns), '}')
}

var registerFields = []string{"table", "columns"}

func (h *registerHeader) decodeMember(d *jsontext.Decoder, key string) {
	switch jsontext.Field(key, registerFields) {
	case "table":
		d.String(&h.Table)
	case "columns":
		decodeColumns(d, &h.Columns)
	default:
		d.Skip()
	}
}

func (h *shuffleHeader) appendJSON(dst []byte) []byte {
	dst = jsontext.AppendString(append(dst, `{"shuffle_id":`...), h.ShuffleID)
	dst = strconv.AppendInt(append(dst, `,"round":`...), int64(h.Round), 10)
	dst = strconv.AppendInt(append(dst, `,"sender":`...), int64(h.Sender), 10)
	return append(appendColumns(append(dst, `,"columns":`...), h.Columns), '}')
}

var shuffleFields = []string{"shuffle_id", "round", "sender", "columns"}

func (h *shuffleHeader) decodeMember(d *jsontext.Decoder, key string) {
	switch jsontext.Field(key, shuffleFields) {
	case "shuffle_id":
		d.String(&h.ShuffleID)
	case "round":
		d.Int(&h.Round)
	case "sender":
		d.Int(&h.Sender)
	case "columns":
		decodeColumns(d, &h.Columns)
	default:
		d.Skip()
	}
}

// appendColumns appends a header's column list; nil is null, as
// encoding/json writes a nil slice.
func appendColumns(dst []byte, cols []WireColumn) []byte {
	if cols == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, c := range cols {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsontext.AppendString(append(dst, `{"name":`...), c.Name)
		dst = jsontext.AppendString(append(dst, `,"type":`...), c.Type)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

var columnFields = []string{"name", "type"}

var errDuplicateColumns = errors.New("service: header carries two column lists")

// decodeColumns reads a column list into *cols: null is nil, [] an empty
// list, and a null column a zero one, as encoding/json decodes them.
func decodeColumns(d *jsontext.Decoder, cols *[]WireColumn) {
	if d.Null() {
		*cols = nil
		return
	}
	if *cols != nil {
		d.Fail(errDuplicateColumns)
		return
	}
	if !d.Array() {
		return
	}
	list := make([]WireColumn, 0, strings.Count(d.Rest(), `"type"`))
	for d.More(']') {
		var c WireColumn
		if d.Object() {
			for d.More('}') {
				switch jsontext.Field(d.Key(), columnFields) {
				case "name":
					d.String(&c.Name)
				case "type":
					d.String(&c.Type)
				default:
					d.Skip()
				}
			}
		}
		list = append(list, c)
	}
	*cols = list
}
