package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	windowdb "repro"
	"repro/internal/datagen"
	"repro/internal/jsontext"
	"repro/internal/paper"
	"repro/internal/trace"
)

// plainSpan is trace.Span without its JSON methods and plainTrailer
// StreamTrailer without its own: what encoding/json makes of the same
// struct tags by reflection, the reference the hand codec is held to. In
// reflectTrailer the outer Trace hides the embedded one, so encoding/json
// writes and reads the tree as plainSpans, in the same place (trace is the
// trailer's last member).
type plainSpan struct {
	Name           string            `json:"name"`
	DurationMillis float64           `json:"duration_ms"`
	Attrs          map[string]string `json:"attrs,omitempty"`
	Children       []*plainSpan      `json:"children,omitempty"`
}

type plainTrailer StreamTrailer

type reflectTrailer struct {
	plainTrailer
	Trace *plainSpan `json:"trace,omitempty"`
}

func reflectOf(t *StreamTrailer) reflectTrailer {
	r := reflectTrailer{plainTrailer: plainTrailer(*t), Trace: plainOf(t.Trace)}
	r.plainTrailer.Trace = nil
	return r
}

func (r *reflectTrailer) trailer() StreamTrailer {
	t := StreamTrailer(r.plainTrailer)
	t.Trace = r.Trace.span()
	return t
}

func plainOf(s *trace.Span) *plainSpan {
	if s == nil {
		return nil
	}
	p := &plainSpan{Name: s.Name, DurationMillis: s.DurationMillis, Attrs: s.Attrs}
	if s.Children != nil {
		p.Children = make([]*plainSpan, len(s.Children))
		for i, c := range s.Children {
			p.Children[i] = plainOf(c)
		}
	}
	return p
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

// TestPlainSpanMirrorsSpan: the reference has trace.Span's members, in its
// order and under its tags, so the codec is held to the type it encodes.
func TestPlainSpanMirrorsSpan(t *testing.T) {
	span, plain := reflect.TypeOf(trace.Span{}), reflect.TypeOf(plainSpan{})
	if span.NumField() != plain.NumField() {
		t.Fatalf("trace.Span has %d fields, plainSpan %d", span.NumField(), plain.NumField())
	}
	for i := range span.NumField() {
		if a, b := span.Field(i), plain.Field(i); a.Name != b.Name || a.Tag != b.Tag {
			t.Errorf("field %d: trace.Span has %s %q, plainSpan %s %q", i, a.Name, a.Tag, b.Name, b.Tag)
		}
	}
}

// servedTrailers are the trailers a warm service streams for Q1 (seven
// spans) and Q6 (a two-window chain) over a small web_sales.
func servedTrailers(tb testing.TB) map[string]StreamTrailer {
	tb.Helper()
	eng := windowdb.New(windowdb.Config{SortMemBytes: 8 << 20, Parallelism: 1})
	eng.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 2000, Seed: 1}))
	svc := New(eng, Config{})
	out := map[string]StreamTrailer{}
	for _, q := range []string{"Q1", "Q6"} {
		for range 2 { // the second run is the warm one
			rows, err := svc.QueryContext(context.Background(), paper.Statements[q])
			if err != nil {
				tb.Fatal(err)
			}
			for rows.Next() {
			}
			if err := rows.Close(); err != nil {
				tb.Fatal(err)
			}
			out[q] = trailerFor(rows.Metrics())
		}
	}
	return out
}

// fuzzTrailer builds a trailer, error members and span tree included, out
// of the fuzz input: its error, its root span's name and one attribute are
// s, its other strings cuts of s (quotes, <>&, control bytes, a rune cut in
// two), its floats x scaled by a power of ten the shape picks, and shape's
// bytes grow the tree: a child to descend into, a climb, an attribute, a
// null child.
func fuzzTrailer(s string, x float64, n int64, w uint64, shape []byte) StreamTrailer {
	at := func(i int) int {
		if len(shape) == 0 {
			return i
		}
		return int(shape[i%len(shape)])
	}
	piece := func(i int) string {
		a, b := at(i)%(len(s)+1), at(i+1)%(len(s)+1)
		return s[min(a, b):max(a, b)]
	}
	scaled := func(i int) float64 { return x * math.Pow10(at(i)%36-14) }
	t := StreamTrailer{
		Done: n&1 != 0, Error: s, Kind: piece(1), RowCount: n, Truncated: n&2 != 0,
		Watermark: w, ElapsedMillis: x, QueuedMillis: scaled(2), CacheHit: n&4 != 0,
		SharedScan: piece(3), Chain: piece(4), FinalSort: piece(5), Route: piece(6),
		ShardsUsed: int(n >> 3), BlocksRead: n >> 1, BlocksWritten: -n, Comparisons: n >> 5,
		TraceID: piece(7),
	}
	if n&8 != 0 {
		return t
	}
	t.Trace = (&trace.Span{Name: s, DurationMillis: x}).SetAttr(s, piece(8))
	stack := []*trace.Span{t.Trace}
	for i, op := range shape {
		cur := stack[len(stack)-1]
		switch op % 4 {
		case 0:
			if len(stack) < 64 {
				c := &trace.Span{Name: piece(i), DurationMillis: scaled(i + 1)}
				cur.Add(c)
				stack = append(stack, c)
			}
		case 1:
			if len(stack) > 1 {
				stack = stack[:len(stack)-1]
			}
		case 2:
			cur.SetAttr(piece(i), piece(i+2))
		case 3:
			cur.Children = append(cur.Children, nil)
		}
	}
	return t
}

// FuzzStreamTrailer holds the hand codec of the stream's metadata frames to
// encoding/json. A trailer built from the input encodes to exactly the
// bytes encoding/json writes (or fails where it fails), and decodes to what
// encoding/json decodes; so does a header whose column names are cuts of
// the input. And the input itself, as a payload: the decoders never panic,
// and what they accept encoding/json accepts too, with an equal value.
func FuzzStreamTrailer(f *testing.F) {
	const s = `kind "quoted" <a&b> \ ` + "\x00\x1f\x7f\xe2\x80\xa8\xff--\xe2\x80\x94"
	shape := []byte{0, 2, 0, 2, 1, 3, 2, 0, 0, 10, 1, 5, 2}
	for _, x := range []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 9.999999999999999e-7, 1e-6,
		0.262097, 1234.5678, 1e20, 999999999999999900000, 1e21, math.MaxFloat64, math.NaN()} {
		f.Add(s, x, int64(2000), uint64(0), shape)
	}
	for _, tr := range servedTrailers(f) {
		payload, err := json.Marshal(reflectOf(&tr))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(payload), tr.ElapsedMillis, tr.RowCount, tr.Watermark, []byte{})
	}
	f.Add(`{"DONE":true,"Row_Count":3,"unknown":[{"a":[1,2e3,-0.5,true,null]}],"trace":null}`, 1.0, int64(1), uint64(9), []byte{})
	f.Add(`{"shuffle_id":"s","round":2,"sender":1,"columns":[{"name":"a","type":"INT"},null]}`, 1.0, int64(0), uint64(0), []byte{})

	f.Fuzz(func(t *testing.T, s string, x float64, n int64, w uint64, shape []byte) {
		tr := fuzzTrailer(s, x, n, w, shape)
		got, err := tr.AppendJSON(nil)
		want, wantErr := json.Marshal(reflectOf(&tr))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("encoder error %v, encoding/json error %v", err, wantErr)
		}
		if err == nil {
			if !bytes.Equal(got, want) {
				t.Fatalf("encoder wrote\n%s\nencoding/json wrote\n%s", got, want)
			}
			var dec StreamTrailer
			if err := dec.UnmarshalJSON(got); err != nil {
				t.Fatalf("decoder refused the encoder's %s: %v", got, err)
			}
			var ref reflectTrailer
			if err := json.Unmarshal(got, &ref); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dec, ref.trailer()) {
				t.Fatalf("decoded %s to %+v, encoding/json to %+v", got, dec, ref.trailer())
			}
		}
		hdr := streamHeader{Columns: []WireColumn{{Name: tr.Error, Type: tr.Kind}, {Name: tr.Route}}}
		if got, want := hdr.appendJSON(nil), mustMarshal(t, hdr); !bytes.Equal(got, want) {
			t.Fatalf("header encoder wrote\n%s\nencoding/json wrote\n%s", got, want)
		}

		payload := []byte(s)
		var dec StreamTrailer
		if dec.UnmarshalJSON(payload) == nil {
			var ref reflectTrailer
			if err := json.Unmarshal(payload, &ref); err != nil {
				t.Fatalf("decoder accepted %q, encoding/json refuses it: %v", payload, err)
			}
			if !reflect.DeepEqual(dec, ref.trailer()) {
				t.Fatalf("decoded %q to %+v, encoding/json to %+v", payload, dec, ref.trailer())
			}
		}
		sameHeader(t, payload, &streamHeader{}, &streamHeader{})
		sameHeader(t, payload, &shuffleHeader{}, &shuffleHeader{})
	})
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameHeader: a header payload decodeHeader accepts into h, encoding/json
// accepts into ref — the same type, which has no JSON methods — with an
// equal value.
func sameHeader(t *testing.T, payload []byte, h, ref metaHeader) {
	t.Helper()
	if decodeHeader(payload, h) != nil {
		return
	}
	if err := json.Unmarshal(payload, ref); err != nil {
		t.Fatalf("header decoder accepted %q, encoding/json refuses it: %v", payload, err)
	}
	if !reflect.DeepEqual(h, ref) {
		t.Fatalf("header decoder read %q as %+v, encoding/json as %+v", payload, h, ref)
	}
}

// trailerDecodeBound is the most allocations decoding t's JSON may take:
// the payload's one string, the span and child-pointer slabs, a map per
// span with attributes (two under Go 1.24: the map and its first group),
// and one per string that carries an escape (a chain's "->" escapes '>').
func trailerDecodeBound(t *StreamTrailer) int {
	bound := 3
	escaped := func(s string) {
		if len(jsontext.AppendString(nil, s)) != len(s)+2 {
			bound++
		}
	}
	for _, s := range []string{t.Error, t.Kind, t.SharedScan, t.Chain, t.FinalSort, t.Route, t.TraceID} {
		escaped(s)
	}
	var walk func(s *trace.Span)
	walk = func(s *trace.Span) {
		if s == nil {
			return
		}
		escaped(s.Name)
		if len(s.Attrs) > 0 {
			bound += 2
		}
		for k, v := range s.Attrs {
			escaped(k)
			escaped(v)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(t.Trace)
	return bound
}

// TestTrailerCodecAllocations pins the codec's allocations on Q1's and a
// two-window chain's served trailers: encoding into a warm buffer takes
// none, and decoding stays within trailerDecodeBound (15 for Q1's seven
// spans, five of them with attributes).
func TestTrailerCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	for q, tr := range servedTrailers(t) {
		buf, err := tr.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Clone(buf)
		if enc := testing.AllocsPerRun(50, func() { buf, _ = tr.AppendJSON(buf[:0]) }); enc != 0 {
			t.Errorf("%s: encoding into a warm buffer allocates %v times", q, enc)
		}
		var dec StreamTrailer
		got := testing.AllocsPerRun(50, func() {
			dec = StreamTrailer{}
			if err := dec.UnmarshalJSON(payload); err != nil {
				t.Fatal(err)
			}
		})
		if bound := trailerDecodeBound(&tr); got > float64(bound) {
			t.Errorf("%s: decoding its %d-byte trailer allocates %v times, bound %d", q, len(payload), got, bound)
		}
		t.Logf("%s: %d-byte trailer decodes in %v allocations", q, len(payload), got)
	}
}

// BenchmarkTrailerCodec is the trailer codec's own number: encoding and
// decoding Q1's and a two-window chain's served trailers by hand and, for
// the reference, by encoding/json's reflection on the same struct tags (the
// codec before the hand one).
func BenchmarkTrailerCodec(b *testing.B) {
	served := servedTrailers(b)
	for _, q := range []string{"Q1", "Q6"} {
		tr := served[q]
		payload, err := tr.AppendJSON(nil)
		if err != nil {
			b.Fatal(err)
		}
		ref := reflectOf(&tr)
		b.Run(q+"/encode/hand", func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 0, 2*len(payload))
			for b.Loop() {
				buf, _ = tr.AppendJSON(buf[:0])
			}
		})
		b.Run(q+"/encode/reflect", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				_, _ = json.Marshal(&ref)
			}
		})
		b.Run(q+"/decode/hand", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				var t StreamTrailer
				_ = t.UnmarshalJSON(payload)
			}
		})
		b.Run(q+"/decode/reflect", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				var t reflectTrailer
				_ = json.Unmarshal(payload, &t)
			}
		})
	}
}
