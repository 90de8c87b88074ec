package service

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/storage"
	"repro/internal/stream"
)

func TestServiceInsertAndAppendRoute(t *testing.T) {
	svc := newTestService(t, Config{}, 100)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	c := NewClient(srv.URL, nil)

	// INSERT through the buffered surface.
	res, err := windowdb.Collect(context.Background(), svc, `INSERT INTO emptab VALUES (11, 20, 4000)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() != 1 || res.Table.Rows[0][1].Int64() != 1 {
		t.Fatalf("INSERT summary = %v", res.Table.Rows)
	}

	// JSON /append through the client.
	resp, err := c.Append(context.Background(), "emptab", []storage.Tuple{
		{storage.Int(12), storage.Int(20), storage.Int(5000)},
		{storage.Int(13), storage.Int(30), storage.Null},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.RowsAppended != 2 {
		t.Fatalf("rows_appended = %d", resp.RowsAppended)
	}
	if resp.Watermark <= 1 {
		t.Fatalf("watermark = %d", resp.Watermark)
	}
	if resp.StartRid != 11 {
		t.Fatalf("start_rid = %d, want 11", resp.StartRid)
	}

	// All appended rows are queryable.
	qres, err := windowdb.Collect(context.Background(), svc, `SELECT empnum FROM emptab WHERE empnum >= 11 ORDER BY empnum`)
	if err != nil {
		t.Fatal(err)
	}
	if qres.Table.Len() != 3 {
		t.Fatalf("appended rows visible = %d, want 3", qres.Table.Len())
	}

	stats := svc.Stats()
	if stats.Appends != 2 || stats.RowsAppended != 3 {
		t.Fatalf("append counters = %d/%d, want 2/3", stats.Appends, stats.RowsAppended)
	}

	// Error taxonomy: unknown table 404, arity mismatch 400.
	if _, err := c.Append(context.Background(), "nosuch", []storage.Tuple{{storage.Int(1)}}); err == nil {
		t.Error("append to unknown table succeeded")
	} else if re := new(RemoteError); !errors.As(err, &re) || re.Status != 404 {
		t.Errorf("unknown-table append error = %v", err)
	}
	if _, err := c.Append(context.Background(), "emptab", []storage.Tuple{{storage.Int(1)}}); err == nil {
		t.Error("arity-mismatch append succeeded")
	} else if re := new(RemoteError); !errors.As(err, &re) || re.Status != 400 {
		t.Errorf("arity-mismatch append error = %v", err)
	}
}

func TestServiceSubscribeBufferedRejected(t *testing.T) {
	svc := newTestService(t, Config{}, 100)
	if _, err := windowdb.Collect(context.Background(), svc, `SUBSCRIBE SELECT empnum FROM emptab`); err == nil {
		t.Fatal("buffered SUBSCRIBE succeeded")
	}
}

// TestServiceSubscribeHTTP drives the full live loop over real sockets:
// subscribe, drain the initial result, append through /append, receive the
// pushed delta with an advanced watermark, close, and verify every slot
// and registry entry drains.
func TestServiceSubscribeHTTP(t *testing.T) {
	svc := newTestService(t, Config{}, 0)
	handler, done := handlerDone(svc.Handler())
	srv := httptest.NewServer(handler)
	defer srv.Close()
	c := NewClient(srv.URL, nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := c.Subscribe(ctx, `SELECT empnum, rank() OVER (PARTITION BY dept ORDER BY salary DESC NULLS LAST) AS r FROM emptab`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()

	cols := rows.Columns()
	if len(cols) != 5 || cols[2] != "_rid" || cols[3] != "_op" || cols[4] != "_watermark" {
		t.Fatalf("columns = %v", cols)
	}
	for i := 0; i < 10; i++ {
		if !rows.Next() {
			t.Fatalf("initial stream ended early at %d: %v", i, rows.Err())
		}
		if op := rows.Row()[3].Str(); op != "init" {
			t.Fatalf("initial row op = %q", op)
		}
	}

	// The subscription shows in the registry: it registered before its
	// stream's header left.
	if infos := svc.Registry().Snapshot(); len(infos) != 1 || !strings.HasPrefix(infos[0].SQL, "SUBSCRIBE") {
		t.Fatalf("subscription not in registry: %+v", infos)
	}

	// Routed append wakes the cursor.
	resp, err := c.Append(ctx, "emptab", []storage.Tuple{{storage.Int(20), storage.Int(10), storage.Int(1000000)}})
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no delta after append: %v", rows.Err())
	}
	row := rows.Row()
	if op := row[3].Str(); op != "append" && op != "upsert" {
		t.Fatalf("delta op = %q", op)
	}
	if wm := uint64(row[4].Int64()); wm != resp.Watermark {
		t.Fatalf("delta watermark = %d, append watermark = %d", wm, resp.Watermark)
	}

	// Close ends the stream; once the subscription's handler — and the
	// append's — have returned, the server holds no slot, registry entry or
	// hub subscription.
	rows.Close()
	<-done
	<-done
	requireIdle(t, svc)
}

// TestServiceSubscribeKill kills a live subscription through the registry
// (what DELETE /debug/queries/{id} calls) and asserts the client stream
// ends and the server drains.
func TestServiceSubscribeKill(t *testing.T) {
	svc := newTestService(t, Config{}, 0)
	handler, done := handlerDone(svc.Handler())
	srv := httptest.NewServer(handler)
	defer srv.Close()
	c := NewClient(srv.URL, nil)

	rows, err := c.Subscribe(context.Background(), `SELECT empnum, rank() OVER (ORDER BY salary DESC NULLS LAST) AS r FROM emptab`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	for i := 0; i < 10; i++ {
		if !rows.Next() {
			t.Fatalf("initial stream ended early: %v", rows.Err())
		}
	}

	// Find and kill the one in-flight query.
	infos := svc.Registry().Snapshot()
	if len(infos) != 1 {
		t.Fatalf("subscription not registered: %+v", infos)
	}
	if id := infos[0].ID; !svc.Registry().Kill(id) {
		t.Fatalf("kill %s failed", id)
	}

	// The client's blocked read ends (error or EOF — the stream was cut or
	// the trailer carried the cancellation).
	ended := make(chan struct{})
	go func() {
		for rows.Next() {
		}
		close(ended)
	}()
	select {
	case <-ended:
	case <-time.After(5 * time.Second):
		t.Fatal("client stream did not end after kill")
	}
	<-done
	requireIdle(t, svc)
}

// requireIdle fails t unless the service holds nothing for a statement
// (Snapshot.Held): read once the statements' ends have returned — over
// HTTP, their handlers — never waited for.
func requireIdle(t *testing.T, svc *Service) {
	t.Helper()
	if held := svc.Stats().Held(); held != "" {
		t.Fatalf("held after the statement ended: %s", held)
	}
}

// TestAppendFrameBody: the binary /append body — what a coordinator routes
// a batch to its owning node with (SendAppendHTTP) — appends exactly as the
// JSON one does, and every way the decoder can be handed a bad one is a 400
// kind "request" with nothing appended and the data generation unmoved.
func TestAppendFrameBody(t *testing.T) {
	svc := newTestService(t, Config{}, 100)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	ctx := context.Background()

	row := func(empnum int64) storage.Tuple {
		return storage.Tuple{storage.Int(empnum), storage.Int(20), storage.Int(4000)}
	}
	resp, err := SendAppendHTTP(ctx, srv.Client(), srv.URL, "emptab", []storage.Tuple{row(11), row(12)}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RowsAppended != 2 || resp.StartRid != 10 || resp.Watermark != 7 || resp.Table != "emptab" {
		t.Fatalf("frame append response = %+v, want 2 rows from rid 10 at the coordinator's watermark 7", resp)
	}

	// frames writes a body by hand: header, batches and trailer as given.
	type part struct {
		typ     byte
		payload string          // header and trailer frames
		rows    []storage.Tuple // batch frames
	}
	frames := func(parts ...part) []byte {
		var buf bytes.Buffer
		fw := stream.NewFrameWriter(&buf)
		for _, p := range parts {
			var err error
			switch p.typ {
			case stream.FrameHeader:
				err = fw.WriteHeader([]byte(p.payload))
			case stream.FrameTrailer:
				err = fw.WriteTrailer([]byte(p.payload))
			default:
				err = fw.WriteTuples(p.rows, len(p.rows[0]))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	header := part{typ: stream.FrameHeader, payload: `{"columns":[{},{},{}]}`}
	batch := part{typ: stream.FrameBatch, rows: []storage.Tuple{row(21), row(22)}}
	trailer := part{typ: stream.FrameTrailer, payload: `{"done":true,"row_count":2}`}
	good := frames(header, batch, trailer)

	cases := []struct {
		name  string
		query string
		body  []byte
	}{
		{"missing table", "?watermark=9", good},
		{"bad watermark", "?table=emptab&watermark=soon", good},
		{"first frame not a header", "?table=emptab", frames(batch, trailer)},
		{"arity mismatch", "?table=emptab", frames(part{typ: stream.FrameHeader, payload: `{"columns":[{},{}]}`}, batch, trailer)},
		{"cut mid-frame", "?table=emptab", good[:len(good)-len(trailer.payload)-8]},
		{"cut at a frame boundary", "?table=emptab", frames(header, batch)},
		{"trailer miscounts", "?table=emptab", frames(header, batch, part{typ: stream.FrameTrailer, payload: `{"done":true,"row_count":3}`})},
		{"trailing bytes", "?table=emptab", append(append([]byte{}, good...), "more"...)},
		{"trailing frame", "?table=emptab", frames(header, batch, trailer, batch)},
	}
	before, err := svc.Engine().DataGeneration("emptab")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := srv.Client().Post(srv.URL+"/append"+tc.query, ContentTypeBinary, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var re *RemoteError
			if !errors.As(DecodeRemoteError("test", resp), &re) || re.Status != http.StatusBadRequest || re.Kind != "request" {
				t.Fatalf("%+v, want 400 kind request", re)
			}
			if after, _ := svc.Engine().DataGeneration("emptab"); after != before {
				t.Fatalf("data generation moved %d → %d on a rejected body", before, after)
			}
			if tab, _ := svc.Engine().Table("emptab"); tab.Len() != 12 {
				t.Fatalf("emptab holds %d rows after a rejected body, want 12", tab.Len())
			}
		})
	}
	// The body the rejections were cut from is itself fine.
	ok, err := srv.Client().Post(srv.URL+"/append?table=emptab", ContentTypeBinary, bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	defer ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("well-formed frame body: %s", ok.Status)
	}
	if tab, _ := svc.Engine().Table("emptab"); tab.Len() != 14 {
		t.Fatalf("emptab holds %d rows, want 14", tab.Len())
	}
}
