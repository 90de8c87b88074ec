package service

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/storage"
)

// TestClientKeepsOneConnection: 200 sequential statements from one Client
// ride one TCP connection in either codec. A reader that stopped at the
// trailer and closed the body before it had read the response's end made
// the transport drop the connection.
func TestClientKeepsOneConnection(t *testing.T) {
	svc := newTestService(t, Config{Slots: 2}, 1000)
	ctx := context.Background()
	for _, codec := range []WireCodec{CodecBinary, CodecJSON} {
		t.Run(string(codec), func(t *testing.T) {
			var opened atomic.Int64
			srv := httptest.NewUnstartedServer(svc.Handler())
			srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
				if s == http.StateNew {
					opened.Add(1)
				}
			}
			srv.Start()
			defer srv.Close()
			client := NewClientCodec(srv.URL, srv.Client(), codec)
			for i := 0; i < 200; i++ {
				res, err := windowdb.Collect(ctx, client, mixQ1)
				if err != nil {
					t.Fatal(err)
				}
				if res.Table.Len() != 1000 {
					t.Fatalf("statement %d: %d rows, want 1000", i, res.Table.Len())
				}
			}
			if n := opened.Load(); n != 1 {
				t.Fatalf("200 sequential statements opened %d connections, want 1", n)
			}
		})
	}
}

// wireSettled waits until every wire workspace taken has been given back —
// a server's handler gives its writer back after the client has read the
// trailer — and fails if more went back than were taken, or if some never
// does.
func wireSettled(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		n := wireOut.Load()
		if n < 0 {
			t.Fatalf("%d wire workspaces went back more than once", -n)
		}
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d wire workspaces never went back", n)
		}
	}
}

// TestWireWorkspaceGoesBackOnce holds every way a stream ends, on both
// sides of the wire and in both codecs, to giving its workspace back
// exactly once: drained, truncated by max_rows, a mid-stream error, a cut
// stream, bytes after the trailer, a cancelled request, Close before the
// trailer — the server's write fails when the client has gone — and a
// Close that races a NextBatch blocked on the body.
func TestWireWorkspaceGoesBackOnce(t *testing.T) {
	table := numericTable(2000)
	hold := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/rows", func(w http.ResponseWriter, r *http.Request) {
		WriteStream(r.Context(), w, newTableRows(table), 0, NegotiateCodec(r))
	})
	big := numericTable(40_000) // more than the socket buffers hold
	mux.HandleFunc("/big", func(w http.ResponseWriter, r *http.Request) {
		WriteStream(r.Context(), w, newTableRows(big), 0, NegotiateCodec(r))
	})
	mux.HandleFunc("/truncated", func(w http.ResponseWriter, r *http.Request) {
		WriteStream(r.Context(), w, newTableRows(table), 300, NegotiateCodec(r))
	})
	mux.HandleFunc("/failing", func(w http.ResponseWriter, r *http.Request) {
		WriteStream(r.Context(), w, newFailingRows(700, errors.New("spill device gone")), 0, NegotiateCodec(r))
	})
	// /cut and /extra write a valid stream's bytes with the end cut off a
	// frame, or with a frame after the trailer.
	valid := map[WireCodec][]byte{}
	for _, codec := range []WireCodec{CodecBinary, CodecJSON} {
		w := &sink{hdr: http.Header{}}
		WriteStream(context.Background(), w, newTableRows(numericTable(600)), 0, codec)
		valid[codec] = w.body.Bytes()
	}
	mux.HandleFunc("/cut", func(w http.ResponseWriter, r *http.Request) {
		body := valid[NegotiateCodec(r)]
		cut := len(body) * 2 / 3 // inside a frame
		if NegotiateCodec(r) == CodecJSON {
			cut = bytes.LastIndexByte(body[:cut], '\n') + 1 // between lines
		}
		w.Header().Set("Content-Type", contentType(NegotiateCodec(r)))
		_, _ = w.Write(body[:cut])
	})
	mux.HandleFunc("/extra", func(w http.ResponseWriter, r *http.Request) {
		body := valid[NegotiateCodec(r)]
		w.Header().Set("Content-Type", contentType(NegotiateCodec(r)))
		_, _ = w.Write(append(append([]byte(nil), body...), body[4:]...))
	})
	mux.HandleFunc("/held", func(w http.ResponseWriter, r *http.Request) {
		// The header, then nothing until the test lets go.
		sw := newStreamWriter(w, NegotiateCodec(r))
		defer sw.release()
		_ = sw.header(table.Schema.Columns)
		sw.flush()
		select {
		case <-hold:
		case <-r.Context().Done():
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for _, codec := range []WireCodec{CodecBinary, CodecJSON} {
		open := func(t *testing.T, ctx context.Context, path string) *StreamReader {
			t.Helper()
			sr, err := OpenStream(ctx, srv.Client(), srv.URL+path, queryRequest{SQL: "x"}, codec)
			if err != nil {
				t.Fatal(err)
			}
			return sr
		}
		// drain reads sr to its end and returns its rows and the error that
		// ended it, nil for a trailer.
		drain := func(sr *StreamReader) (rows int, err error) {
			for {
				b, err := sr.NextBatch()
				if err == io.EOF {
					return rows, nil
				}
				if err != nil {
					return rows, err
				}
				rows += b.Len()
			}
		}
		endings := []struct {
			name string
			run  func(t *testing.T)
		}{
			{"drained", func(t *testing.T) {
				sr := open(t, context.Background(), "/rows")
				if n, err := drain(sr); err != nil || n != table.Len() {
					t.Fatalf("%d rows, %v", n, err)
				}
				_ = sr.Close()
				_ = sr.Close()
			}},
			{"truncated by max_rows", func(t *testing.T) {
				sr := open(t, context.Background(), "/truncated")
				if n, err := drain(sr); err != nil || n != 300 || !sr.Trailer().Truncated {
					t.Fatalf("%d rows, %v", n, err)
				}
				_ = sr.Close()
			}},
			{"mid-stream error", func(t *testing.T) {
				sr := open(t, context.Background(), "/failing")
				var re *RemoteError
				if n, err := drain(sr); n != 700 || !errors.As(err, &re) {
					t.Fatalf("%d rows, %v", n, err)
				}
				if _, err := sr.NextBatch(); !errors.As(err, &re) {
					t.Fatalf("after the error: %v", err)
				}
				_ = sr.Close()
			}},
			{"cut", func(t *testing.T) {
				sr := open(t, context.Background(), "/cut")
				if _, err := drain(sr); err == nil || !strings.Contains(err.Error(), "cut before trailer") {
					t.Fatalf("err = %v, want a cut stream", err)
				}
				_ = sr.Close()
			}},
			{"bytes after the trailer", func(t *testing.T) {
				sr := open(t, context.Background(), "/extra")
				if _, err := drain(sr); err == nil || !strings.Contains(err.Error(), "after the stream's trailer") {
					t.Fatalf("err = %v, want bytes after the trailer", err)
				}
				if sr.Trailer() != nil {
					t.Fatal("a stream with bytes after its trailer exposes the trailer")
				}
				_ = sr.Close()
			}},
			{"client gone", func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				sr := open(t, ctx, "/held")
				cancel()
				if _, err := drain(sr); !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				_ = sr.Close()
			}},
			{"closed before the trailer", func(t *testing.T) {
				sr := open(t, context.Background(), "/big")
				if _, err := sr.NextBatch(); err != nil {
					t.Fatal(err)
				}
				_ = sr.Close()
				if _, err := sr.NextBatch(); err == nil || err == io.EOF {
					t.Fatalf("NextBatch after Close: %v", err)
				}
				_ = sr.Close()
			}},
			{"closed before a batch", func(t *testing.T) {
				_ = open(t, context.Background(), "/rows").Close()
			}},
			{"closed under a read", func(t *testing.T) {
				sr := open(t, context.Background(), "/held")
				read := make(chan error, 1)
				go func() {
					_, err := sr.NextBatch()
					read <- err
				}()
				for !sr.busy() { // the read has claimed the workspace
					runtime.Gosched()
				}
				_ = sr.Close()
				if err := <-read; err == nil || err == io.EOF {
					t.Fatalf("a read under Close: %v", err)
				}
			}},
			{"through Rows", func(t *testing.T) {
				rows := windowdb.NewRows(open(t, context.Background(), "/big"))
				for i := 0; i < 3 && rows.Next(); i++ {
				}
				_ = rows.Close()
			}},
		}
		for _, e := range endings {
			t.Run(string(codec)+"/"+e.name, func(t *testing.T) {
				wireSettled(t)
				e.run(t)
				wireSettled(t)
			})
		}
	}
	close(hold)
}

// busy reports whether a NextBatch holds sr's workspace.
func (sr *StreamReader) busy() bool {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return sr.reading
}

// contentType is a codec's response Content-Type.
func contentType(codec WireCodec) string {
	if codec == CodecBinary {
		return ContentTypeBinary
	}
	return ContentTypeNDJSON
}

// wireRoundTrip returns one warm round trip of table through the binary
// codec over memory: WriteStream into a kept buffer, a StreamReader over
// it drained by batch.
func wireRoundTrip(t *testing.T, table *storage.Table) func() {
	w := &sink{hdr: http.Header{}}
	body := bytes.NewReader(nil)
	resp := &http.Response{Header: http.Header{"Content-Type": {ContentTypeBinary}}, Body: io.NopCloser(body)}
	return func() {
		w.body.Reset()
		WriteStream(context.Background(), w, newTableRows(table), 0, CodecBinary)
		body.Reset(w.body.Bytes())
		sr, err := wrapResponse("test", resp)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			b, err := sr.NextBatch()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			n += b.Len()
		}
		_ = sr.Close()
		if n != table.Len() {
			t.Fatalf("%d rows came through, want %d", n, table.Len())
		}
	}
}

// TestWarmWireRoundTripAllocations: a warm binary round trip allocates per
// statement, not per frame or row — the same at 2 000 rows (8 frames) as at
// 20 000 (79), within 2. The writer, the reader and the batch come back
// from their lists, and a frame's header lives in the writer's buffer and
// in the reader's struct.
func TestWarmWireRoundTripAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	small := testing.AllocsPerRun(20, wireRoundTrip(t, numericTable(2_000)))
	large := testing.AllocsPerRun(20, wireRoundTrip(t, numericTable(20_000)))
	if large > small+2 {
		t.Fatalf("a warm round trip allocates %v times at 20 000 rows and %v at 2 000: per frame, not per statement", large, small)
	}
	t.Logf("a warm round trip allocates %v times at 2 000 rows, %v at 20 000", small, large)
}

// BenchmarkWireRoundTrip is the wire layer's own number: a 20 000-row Q1
// result, computed once, served through WriteStream and read through
// StreamReader over loopback HTTP in the binary codec. B/op and allocs/op
// are whole-process — the server's frame writer, the HTTP stack on both
// sides, the client's reader — per statement.
func BenchmarkWireRoundTrip(b *testing.B) {
	const rows = 20_000
	ctx := context.Background()
	res, err := windowdb.Collect(ctx, newTestService(b, Config{Slots: 1}, rows), mixQ1)
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteStream(r.Context(), w, newTableRows(res.Table), 0, CodecBinary)
	}))
	defer srv.Close()
	run := func() {
		sr, err := OpenStream(ctx, srv.Client(), srv.URL, queryRequest{SQL: mixQ1}, CodecBinary)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			batch, err := sr.NextBatch()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n += batch.Len()
		}
		_ = sr.Close()
		if n != rows {
			b.Fatalf("%d rows, want %d", n, rows)
		}
	}
	run() // the connection and the lists
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
