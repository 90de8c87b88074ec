package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
	"repro/internal/storage"
	"repro/internal/stream"
)

// TestCodecNegotiationFallback pins the negotiation rules at the raw HTTP
// level: binary only when the client names it (Accept or ?codec=binary),
// NDJSON for everything else — including Accept headers this server has
// never heard of: a client that never names binary gets NDJSON on /query.
func TestCodecNegotiationFallback(t *testing.T) {
	svc := newTestService(t, Config{Slots: 2}, 200)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	cases := []struct {
		name   string
		base   string
		accept string
		query  string
		want   string
	}{
		{"binary accept", srv.URL, ContentTypeBinary + ", " + ContentTypeNDJSON, "", ContentTypeBinary},
		{"ndjson accept", srv.URL, ContentTypeNDJSON, "", ContentTypeNDJSON},
		{"unknown accept falls back", srv.URL, "application/vnd.fancy+columns", "?stream=1", ContentTypeNDJSON},
		{"no accept, stream param", srv.URL, "", "?stream=1", ContentTypeNDJSON},
		{"codec query param", srv.URL, "", "?stream=1&codec=binary", ContentTypeBinary},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := strings.NewReader(`{"sql":"SELECT empnum, rank() OVER (ORDER BY salary DESC) AS r FROM emptab"}`)
			req, err := http.NewRequest(http.MethodPost, tc.base+"/query"+tc.query, body)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			if tc.accept != "" {
				req.Header.Set("Accept", tc.accept)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %s", resp.Status)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, tc.want) {
				t.Fatalf("Content-Type %q, want %q", ct, tc.want)
			}
			// Whatever the codec, the stream must decode: count the rows.
			sr, err := wrapResponse("test", resp)
			if err != nil {
				t.Fatal(err)
			}
			rows := windowdb.NewRows(sr)
			n := 0
			for rows.Next() {
				n++
			}
			if err := rows.Err(); err != nil {
				t.Fatal(err)
			}
			if n != 10 { // emptab is the paper's 10-row Example 1 relation
				t.Fatalf("decoded %d rows, want 10", n)
			}
		})
	}
}

// failingSource yields a few rows and then dies: the deterministic way to
// observe a mid-stream error, which on the wire must arrive as an error
// trailer — the 200 header is long gone when the failure happens.
type failingSource struct {
	rows int
	n    int
	err  error
	b    *stream.Batcher
}

func newFailingRows(rows int, err error) *windowdb.Rows {
	f := &failingSource{rows: rows, err: err}
	f.b = stream.NewBatcher(1, stream.BatchRows(1), f.next)
	return windowdb.NewRows(f)
}

func (f *failingSource) Columns() []storage.Column {
	return []storage.Column{{Name: "n", Type: storage.TypeInt}}
}

func (f *failingSource) NextBatch() (*stream.Batch, error) { return f.b.NextBatch() }

func (f *failingSource) next() (storage.Tuple, error) {
	if f.n >= f.rows {
		return nil, f.err
	}
	f.n++
	return storage.Tuple{storage.Int(int64(f.n))}, nil
}

func (f *failingSource) End(windowdb.Ending) *windowdb.QueryMetrics { return nil }

// TestErrorTrailerSurvivesFraming: a server-side failure after rows have
// streamed surfaces through BOTH codecs as a trailer-borne RemoteError
// with the taxonomy kind — not a silent prefix, not a cut stream.
func TestErrorTrailerSurvivesFraming(t *testing.T) {
	for _, codec := range []WireCodec{CodecJSON, CodecBinary} {
		t.Run(string(codec), func(t *testing.T) {
			good := 2*stream.BatchRows(1) + 300 // past several flush strides and batches
			boom := fmt.Errorf("spill device gone")
			mux := http.NewServeMux()
			mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
				rows := newFailingRows(good, boom)
				WriteStream(r.Context(), w, rows, 0, codec)
			})
			srv := httptest.NewServer(mux)
			defer srv.Close()

			sr, err := OpenStream(context.Background(), srv.Client(), srv.URL+"/query", queryRequest{SQL: "x"}, codec)
			if err != nil {
				t.Fatal(err)
			}
			rows := windowdb.NewRows(sr)
			defer rows.Close()
			n := 0
			for rows.Next() {
				if tup, want := rows.Row(), storage.Int(int64(n+1)); !storage.Identical(tup[0], want) {
					t.Fatalf("row %d = %v", n, tup)
				}
				n++
			}
			var re *RemoteError
			if err := rows.Err(); !errors.As(err, &re) {
				t.Fatalf("after %d rows: %v, want RemoteError", n, err)
			}
			if re.Kind != "internal" || !strings.Contains(re.Msg, "spill device gone") {
				t.Fatalf("remote error %+v", re)
			}
			if n != good {
				t.Fatalf("delivered %d rows before the error, want %d", n, good)
			}
			if sr.Trailer() != nil {
				t.Fatal("error stream must not expose a success trailer")
			}
		})
	}
}

// TestNodePlanesSpeakFramesOnly: between the processes of a cluster there
// is one encoding. /shard/query answers binary frames
// whatever the request's Accept or ?codec= says — nothing is negotiated —
// and a /shard/shuffle POST that does not declare itself frames is a 415
// refused unread, not parsed as something else: the node buffers nothing.
func TestNodePlanesSpeakFramesOnly(t *testing.T) {
	svc := newTestService(t, Config{Slots: 2, ShardRoutes: true}, 300)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	streams := []struct{ name, method, path, body string }{
		{"query", http.MethodPost, "/shard/query?", `{"sql":"SELECT empnum FROM emptab","mode":"full"}`},
	}
	for _, st := range streams {
		for _, ask := range []struct{ accept, param string }{
			{"", ""},
			{ContentTypeNDJSON, ""},
			{"application/json", "codec=json"},
		} {
			t.Run(st.name+"/accept="+ask.accept, func(t *testing.T) {
				req, err := http.NewRequest(st.method, srv.URL+st.path+ask.param, strings.NewReader(st.body))
				if err != nil {
					t.Fatal(err)
				}
				if ask.accept != "" {
					req.Header.Set("Accept", ask.accept)
				}
				resp, err := srv.Client().Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != ContentTypeBinary {
					t.Fatalf("%s, Content-Type %q; want 200 %s", resp.Status, ct, ContentTypeBinary)
				}
				sr, err := wrapResponse("test", resp)
				if err != nil {
					t.Fatal(err)
				}
				rows, n := windowdb.NewRows(sr), 0
				for rows.Next() {
					n++
				}
				if err := rows.Err(); err != nil || n != 10 {
					t.Fatalf("decoded %d rows (%v), want emptab's 10", n, err)
				}
			})
		}
	}

	// A whole, well-formed NDJSON shuffle stream — what the retired codec
	// would have ingested.
	ndjson := `{"shuffle_id":"q","round":1,"sender":0,"columns":[{"name":"a","type":"INT"}]}` + "\n" +
		`[{"i":"1"}]` + "\n" + `{"done":true,"row_count":1}` + "\n"
	for _, ct := range []string{ContentTypeNDJSON, "application/json", ""} {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/shard/shuffle", strings.NewReader(ndjson))
		if err != nil {
			t.Fatal(err)
		}
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var re *RemoteError
		if !errors.As(DecodeRemoteError("test", resp), &re) || re.Status != http.StatusUnsupportedMediaType || re.Kind != "request" {
			t.Fatalf("Content-Type %q: %+v, want 415 kind request", ct, re)
		}
		resp.Body.Close()
		if got := svc.shuffleBuffered(); got != 0 {
			t.Fatalf("Content-Type %q: node buffers %d shuffle rounds after the refusal", ct, got)
		}
	}
	// The same delivery as frames lands.
	if err := SendShuffleHTTP(context.Background(), srv.Client(), srv.URL, testBatch("q", 1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if got := svc.shuffleBuffered(); got != 1 {
		t.Fatalf("node buffers %d shuffle rounds after a frame delivery, want 1", got)
	}
}
