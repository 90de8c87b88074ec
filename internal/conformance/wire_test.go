package conformance

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	windowdb "repro"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/trace"
)

// plainSpan is trace.Span without its JSON methods and plainTrailer
// service.StreamTrailer without its own, so that encoding/json decodes a
// reflectTrailer by reflection — the reference the hand codec is held to.
// The outer Trace hides the embedded one.
type plainSpan struct {
	Name           string            `json:"name"`
	DurationMillis float64           `json:"duration_ms"`
	Attrs          map[string]string `json:"attrs,omitempty"`
	Children       []*plainSpan      `json:"children,omitempty"`
}

func (p *plainSpan) span() *trace.Span {
	if p == nil {
		return nil
	}
	s := &trace.Span{Name: p.Name, DurationMillis: p.DurationMillis, Attrs: p.Attrs}
	if p.Children != nil {
		s.Children = make([]*trace.Span, len(p.Children))
		for i, c := range p.Children {
			s.Children[i] = c.span()
		}
	}
	return s
}

type plainTrailer service.StreamTrailer

type reflectTrailer struct {
	plainTrailer
	Trace *plainSpan `json:"trace,omitempty"`
}

func (r *reflectTrailer) trailer() service.StreamTrailer {
	t := service.StreamTrailer(r.plainTrailer)
	t.Trace = r.Trace.span()
	return t
}

// wireCapture is one streamed response as it crossed the wire.
type wireCapture struct {
	what        string
	contentType string
	body        []byte
}

// tapWriter copies a response's body as it is written, flushes included.
type tapWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (w *tapWriter) Write(p []byte) (int, error) {
	w.body.Write(p)
	return w.ResponseWriter.Write(p)
}

func (w *tapWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// wireTap records every streamed response its handlers write.
type wireTap struct {
	mu       sync.Mutex
	captures []wireCapture
}

func (tp *wireTap) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw := &tapWriter{ResponseWriter: w}
		h.ServeHTTP(tw, r)
		ct := w.Header().Get("Content-Type")
		if !strings.Contains(ct, service.ContentTypeBinary) && !strings.Contains(ct, service.ContentTypeNDJSON) {
			return
		}
		tp.mu.Lock()
		tp.captures = append(tp.captures, wireCapture{name + " " + r.URL.Path, ct, tw.body.Bytes()})
		tp.mu.Unlock()
	})
}

// metaPayloads splits a captured stream into its header and trailer
// payloads: the first and last frame, or the first and last line. A stream
// cut short has no trailer.
func metaPayloads(c wireCapture) (header, trailer []byte) {
	if strings.Contains(c.contentType, service.ContentTypeBinary) {
		fr := stream.NewFrameReader(bytes.NewReader(c.body))
		for {
			f, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return header, nil
			}
			switch f.Type {
			case stream.FrameHeader:
				header = bytes.Clone(f.Payload)
			case stream.FrameTrailer:
				trailer = bytes.Clone(f.Payload)
			}
		}
		return header, trailer
	}
	sc := bufio.NewScanner(bytes.NewReader(c.body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			if header == nil {
				header = bytes.Clone(line)
			}
			trailer = bytes.Clone(line)
		}
	}
	return header, trailer
}

// TestWireMetadataDecodesAsJSON: every statement of the conformance corpus
// runs through a served engine and through a coordinator over two HTTP
// shard nodes, in both codecs, and so do a truncated SUBSCRIBE (a trailer
// with a watermark) and one its deadline ends (an error trailer). Every
// streamed response on the wire — /query's, and the nodes' /shard/query's
// that came to their trailer — must carry the header and trailer bytes
// encoding/json writes for what they hold. Each is then replayed to
// service.OpenStream, and what the hand codec decodes from its header and
// trailer must be what encoding/json decodes: the columns, the trailer
// whole (StreamTrailer.UnmarshalJSON), and what a reader makes of it — its
// Trailer, or the RemoteError carrying an error trailer's kind and message.
func TestWireMetadataDecodesAsJSON(t *testing.T) {
	ws, emp := dataset()
	tap := &wireTap{}
	engineSrv := httptest.NewServer(tap.wrap("engine", service.New(newEngine(), service.Config{Slots: 2}).Handler()))
	t.Cleanup(engineSrv.Close)
	nodes := make([]shard.Transport, 2)
	for i := range nodes {
		node := service.New(windowdb.New(engCfg()), service.Config{Slots: 2, ShardRoutes: true})
		srv := httptest.NewServer(tap.wrap("node"+strconv.Itoa(i), node.Handler()))
		t.Cleanup(srv.Close)
		nodes[i] = shard.NewHTTP(srv.URL, srv.Client())
	}
	c, err := shard.New(shard.Config{Engine: engCfg()}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.RegisterSharded(ctx, "web_sales", ws, "ws_item_sk"); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterReplicated(ctx, "emptab", emp); err != nil {
		t.Fatal(err)
	}
	coordSrv := httptest.NewServer(tap.wrap("coordinator", c.Handler()))
	t.Cleanup(coordSrv.Close)

	const subscribe = `SUBSCRIBE SELECT empnum, rank() OVER (ORDER BY salary) AS r FROM emptab`
	for _, srv := range []*httptest.Server{engineSrv, coordSrv} {
		for _, codec := range []service.WireCodec{service.CodecBinary, service.CodecJSON} {
			var reqs []map[string]any
			for _, q := range conformanceQueries {
				reqs = append(reqs, map[string]any{"sql": q.sql, "stream": true})
			}
			reqs = append(reqs,
				map[string]any{"sql": subscribe, "stream": true, "max_rows": 2},
				map[string]any{"sql": subscribe, "stream": true, "timeout_ms": 50})
			for _, req := range reqs {
				sr, err := service.OpenStream(ctx, srv.Client(), srv.URL+"/query", req, codec)
				if err != nil {
					t.Fatalf("%v: %v", req, err)
				}
				for err == nil {
					_, err = sr.NextBatch()
				}
				_ = sr.Close()
			}
		}
	}

	tap.mu.Lock()
	captures := tap.captures
	tap.mu.Unlock()
	replay := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i, _ := strconv.Atoi(r.URL.Query().Get("i"))
		w.Header().Set("Content-Type", captures[i].contentType)
		_, _ = w.Write(captures[i].body)
	}))
	t.Cleanup(replay.Close)

	var nodeStreams, errorTrailers, watermarks int
	for i, cpt := range captures {
		header, trailer := metaPayloads(cpt)
		node := strings.HasPrefix(cpt.what, "node")
		if node && trailer == nil {
			continue // the coordinator walked away: a LIMIT met, a deadline passed
		}
		if header == nil || trailer == nil {
			t.Fatalf("%s: a stream without its header or trailer", cpt.what)
		}
		if node {
			nodeStreams++
		}
		var refHeader struct {
			Columns []service.WireColumn `json:"columns"`
		}
		if err := json.Unmarshal(header, &refHeader); err != nil {
			t.Fatalf("%s: header %s: %v", cpt.what, header, err)
		}
		if b, _ := json.Marshal(&refHeader); !bytes.Equal(b, header) {
			t.Errorf("%s: the wire's header is\n%s\nencoding/json writes\n%s", cpt.what, header, b)
		}
		wantCols, err := service.DecodeColumns(refHeader.Columns)
		if err != nil {
			t.Fatal(err)
		}
		var ref reflectTrailer
		if err := json.Unmarshal(trailer, &ref); err != nil {
			t.Fatalf("%s: trailer %s: %v", cpt.what, trailer, err)
		}
		if b, _ := json.Marshal(&ref); !bytes.Equal(b, trailer) {
			t.Errorf("%s: the wire's trailer is\n%s\nencoding/json writes\n%s", cpt.what, trailer, b)
		}
		want := ref.trailer()
		var got service.StreamTrailer
		if err := got.UnmarshalJSON(trailer); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: trailer %s decodes to %+v (%v), encoding/json to %+v", cpt.what, trailer, got, err, want)
		}

		sr, err := service.OpenStream(ctx, replay.Client(), replay.URL+"?i="+strconv.Itoa(i), struct{}{}, service.CodecBinary)
		if err != nil {
			t.Fatalf("%s: replay: %v", cpt.what, err)
		}
		if !reflect.DeepEqual(sr.Columns(), wantCols) {
			t.Errorf("%s: header %s reads as %v, encoding/json as %v", cpt.what, header, sr.Columns(), wantCols)
		}
		for err == nil {
			_, err = sr.NextBatch()
		}
		_ = sr.Close()
		if want.Error != "" {
			errorTrailers++
			var remote *service.RemoteError
			if !errors.As(err, &remote) || remote.Kind != want.Kind || remote.Msg != want.Error {
				t.Errorf("%s: error trailer %s ends the reader with %v", cpt.what, trailer, err)
			}
			continue
		}
		if err != io.EOF || !reflect.DeepEqual(*sr.Trailer(), want) {
			t.Errorf("%s: trailer %s ends the reader with %v, trailer %+v", cpt.what, trailer, err, sr.Trailer())
		}
		if want.Watermark > 0 {
			watermarks++
		}
	}
	if nodeStreams == 0 || errorTrailers == 0 || watermarks == 0 {
		t.Fatalf("of %d streams, %d came from a node, %d ended in an error trailer and %d carried a watermark: each must be some",
			len(captures), nodeStreams, errorTrailers, watermarks)
	}
	t.Logf("%d streams: %d from a node, %d error trailers, %d watermarks", len(captures), nodeStreams, errorTrailers, watermarks)
}
