package service

import (
	"bytes"
	"net/http"
	"strconv"

	"repro/internal/jsontext"
	"repro/internal/recycle"
)

// The /query request body, encoded and decoded by hand: a Client appends
// it into a buffer of its own, and a front end reads it into one from
// bodyBufs and decodes it with jsontext, so a served statement's request
// costs neither side a walk by reflection. The encoder writes exactly the
// bytes encoding/json writes for queryRequest's struct tags, and the
// decoder accepts only what encoding/json accepts, with an equal value
// (FuzzQueryRequest). Every other request body — /append, /shard/* — is
// encoding/json's.

type queryRequest struct {
	SQL string `json:"sql"`
	// MaxRows truncates the returned rows (the query still executes fully);
	// 0 means all rows.
	MaxRows int `json:"max_rows"`
	// TimeoutMillis bounds the query when > 0, overriding the service
	// default.
	TimeoutMillis int64 `json:"timeout_ms"`
	// Stream asks for the NDJSON streamed response (stream.go) instead of
	// the buffered JSON body; `Accept: application/x-ndjson` and `?stream=1`
	// are equivalent spellings.
	Stream bool `json:"stream,omitempty"`
	// Subscribe turns the statement into a SUBSCRIBE (prepending the verb
	// if the SQL doesn't already carry it) and implies Stream: the response
	// is the live delta stream, flushed row by row. `?subscribe=1` is the
	// GET spelling.
	Subscribe bool `json:"subscribe,omitempty"`
}

// bodyBufs are the buffers a front end reads /query request bodies into.
var bodyBufs = recycle.NewList(func(b *[]byte) int64 { return int64(cap(*b)) })

// appendJSON appends q's JSON to dst, byte for byte what encoding/json
// writes for it.
func (q *queryRequest) appendJSON(dst []byte) []byte {
	dst = jsontext.AppendString(append(dst, `{"sql":`...), q.SQL)
	dst = strconv.AppendInt(append(dst, `,"max_rows":`...), int64(q.MaxRows), 10)
	dst = strconv.AppendInt(append(dst, `,"timeout_ms":`...), q.TimeoutMillis, 10)
	if q.Stream {
		dst = append(dst, `,"stream":true`...)
	}
	if q.Subscribe {
		dst = append(dst, `,"subscribe":true`...)
	}
	return append(dst, '}')
}

var queryFields = []string{"sql", "max_rows", "timeout_ms", "stream", "subscribe"}

// decode reads the JSON text s into q as encoding/json's Unmarshal would:
// member names match case-insensitively and unknown members are skipped.
func (q *queryRequest) decode(s string) error {
	d := jsontext.NewDecoder(s)
	if !d.Object() {
		return d.End()
	}
	for d.More('}') {
		switch jsontext.Field(d.Key(), queryFields) {
		case "sql":
			d.String(&q.SQL)
		case "max_rows":
			d.Int(&q.MaxRows)
		case "timeout_ms":
			d.Int64(&q.TimeoutMillis)
		case "stream":
			d.Bool(&q.Stream)
		case "subscribe":
			d.Bool(&q.Subscribe)
		default:
			d.Skip()
		}
	}
	return d.End()
}

// maxQueryBody bounds a /query request body: SQL text and a few scalars.
// Past it the front end answers 413 and stops reading, so no client can
// make it buffer — or keep on bodyBufs — more than this.
const maxQueryBody = 1 << 20

// readQueryRequest reads r's body, at most maxQueryBody bytes of it, into
// a buffer from bodyBufs and decodes it into q. The strings q gets are
// copies: the buffer goes back before it returns. A body over the bound is
// an *http.MaxBytesError.
func readQueryRequest(w http.ResponseWriter, r *http.Request, q *queryRequest) error {
	buf := bodyBufs.Get()
	defer bodyBufs.Put(buf)
	body := bytes.NewBuffer((*buf)[:0])
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxQueryBody))
	*buf = body.Bytes()
	if err != nil {
		return err
	}
	return q.decode(body.String())
}
