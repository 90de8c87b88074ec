package service

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/stream"
)

// tinyBufListener clamps the kernel buffers of every accepted connection,
// so a streamed response cannot be absorbed in-flight: the server blocks
// on the socket until the client actually reads — which makes
// client-disconnect tests deterministic instead of racing the drain of
// the whole (compact, binary) body into autotuned loopback buffers. The
// server's send buffer is only half of what sits between the two ends:
// the client has to dial through tinyBufClient, or its receive buffer —
// autotuned up to megabytes on loopback — takes the whole response.
type tinyBufListener struct {
	net.Listener
}

func (l tinyBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	clampBuffers(c)
	return c, nil
}

func clampBuffers(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4 << 10)
		_ = tc.SetWriteBuffer(4 << 10)
	}
}

// tinyBufClient returns an HTTP client whose connections have the same
// clamped kernel buffers as tinyBufListener's.
func tinyBufClient() *http.Client {
	var d net.Dialer
	return &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := d.DialContext(ctx, network, addr)
			if err == nil {
				clampBuffers(c)
			}
			return c, err
		},
	}}
}

// requireInFlightZero holds the in-flight gauge to zero. A cursor's slot is
// released by the time its ending is visible: when an in-process Rows has
// drained or closed, when a streamed response's trailer has arrived, and —
// for a client that hung up — when the handler has returned (handlerDone).
func requireInFlightZero(t *testing.T, svc *Service) {
	t.Helper()
	if got := svc.Stats().InFlight; got != 0 {
		t.Fatalf("in-flight gauge at %d after the cursor ended, want 0", got)
	}
}

// handlerDone wraps h so that every request sends on the returned channel
// once its handler has returned: the gate a test waits at for a server's
// teardown after a disconnect, which no response tells the client about.
func handlerDone(h http.Handler) (http.Handler, <-chan struct{}) {
	done := make(chan struct{}, 8) // more than any one test's requests
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		done <- struct{}{}
	}), done
}

// TestStreamSlotHeldUntilClose: the admission slot belongs to the cursor
// from QueryContext until Close — a second query on a one-slot service is
// rejected while the cursor is open and admitted after Close.
func TestStreamSlotHeldUntilClose(t *testing.T) {
	svc := newTestService(t, Config{Slots: 1, MaxQueue: -1}, 2000)
	ctx := context.Background()
	rows, err := svc.QueryContext(ctx, mixQ1)
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().InFlight; got != 1 {
		t.Fatalf("in-flight = %d with an open cursor, want 1", got)
	}
	if _, err := windowdb.Collect(ctx, svc, mixQ1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second query err = %v, want ErrOverloaded while cursor holds the slot", err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	requireInFlightZero(t, svc)
	if _, err := windowdb.Collect(ctx, svc, mixQ1); err != nil {
		t.Fatalf("query after Close: %v", err)
	}
}

// TestStreamSlotReleasedOnDrain: a fully drained cursor releases its slot
// without an explicit Close.
func TestStreamSlotReleasedOnDrain(t *testing.T) {
	svc := newTestService(t, Config{Slots: 1, MaxQueue: -1}, 500)
	rows, err := svc.QueryContext(context.Background(), mixQ1)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Fatalf("drained %d rows, want 500", n)
	}
	requireInFlightZero(t, svc)
	m := rows.Metrics()
	if m == nil || m.Rows != 500 {
		t.Fatalf("metrics after drain = %+v, want 500 rows", m)
	}
}

// TestStreamCancelMidDrain is the mid-stream cancellation contract: a
// half-drained cursor whose context is cancelled stops with
// context.Canceled and the slot and in-flight gauge return to zero. The
// result is three of mixQ1's two-column batches: the cancel lands between
// two of them.
func TestStreamCancelMidDrain(t *testing.T) {
	svc := newTestService(t, Config{Slots: 1, MaxQueue: -1}, 3*stream.BatchRows(2))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := svc.QueryContext(ctx, mixQ1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !rows.Next() {
			t.Fatalf("stream ended after %d rows: %v", i, rows.Err())
		}
	}
	cancel()
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	requireInFlightZero(t, svc)
	if _, err := windowdb.Collect(context.Background(), svc, mixQ1); err != nil {
		t.Fatalf("slot not released after cancel: %v", err)
	}
}

// TestStreamValueIdentity: the streamed rows equal the buffered Query
// result, value for value.
func TestStreamValueIdentity(t *testing.T) {
	svc := newTestService(t, Config{Slots: 2}, 1000)
	ctx := context.Background()
	want, err := windowdb.Collect(ctx, svc, mixQ1)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := svc.QueryContext(ctx, mixQ1)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for rows.Next() {
		if i >= want.Table.Len() {
			t.Fatal("stream yields more rows than the buffered result")
		}
		got := string(storage.AppendTuple(nil, rows.Row()))
		exp := string(storage.AppendTuple(nil, want.Table.Rows[i]))
		if got != exp {
			t.Fatalf("row %d differs", i)
		}
		i++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if i != want.Table.Len() {
		t.Fatalf("stream %d rows, buffered %d", i, want.Table.Len())
	}
	m := rows.Metrics()
	if m == nil || !m.CacheHit {
		t.Fatalf("metrics = %+v, want a plan-cache hit on the second execution", m)
	}
}

// TestClientStreamRoundTrip: the remote Client against a real handler —
// rows arrive incrementally, values are lossless, and the trailer's
// metadata lands in Metrics.
func TestClientStreamRoundTrip(t *testing.T) {
	svc := newTestService(t, Config{Slots: 2}, 1000)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL, srv.Client())

	ctx := context.Background()
	want, err := windowdb.Collect(ctx, svc, mixQ1)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := client.QueryContext(ctx, mixQ1)
	if err != nil {
		t.Fatal(err)
	}
	if cols := rows.Columns(); len(cols) != 2 || cols[0] != "ws_item_sk" || cols[1] != "r" {
		t.Fatalf("columns = %v", cols)
	}
	i := 0
	for rows.Next() {
		got := string(storage.AppendTuple(nil, rows.Row()))
		exp := string(storage.AppendTuple(nil, want.Table.Rows[i]))
		if got != exp {
			t.Fatalf("row %d differs across the wire", i)
		}
		i++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if i != want.Table.Len() {
		t.Fatalf("client %d rows, local %d", i, want.Table.Len())
	}
	m := rows.Metrics()
	if m == nil {
		t.Fatal("no metrics after drain")
	}
	if m.Chain == "" {
		t.Fatal("trailer lost the chain")
	}
	if m.Rows != int64(i) {
		t.Fatalf("metrics rows = %d, want %d", m.Rows, i)
	}
}

// TestClientErrorTaxonomy: remote errors unwrap to the local sentinels
// through the streaming surface.
func TestClientErrorTaxonomy(t *testing.T) {
	svc := newTestService(t, Config{Slots: 2}, 100)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	cases := []struct {
		q    string
		want error
	}{
		{"SELEKT 1", sql.ErrParse},
		{"SELECT nosuch FROM emptab", sql.ErrBind},
		{"SELECT * FROM nosuch", catalog.ErrUnknownTable},
	}
	for _, c := range cases {
		_, err := client.QueryContext(ctx, c.q)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.q, err, c.want)
		}
	}
}

// TestClientDisconnectReleasesSlot is the client-disconnect half of the
// cancellation contract: a client that closes a half-read stream releases
// the server's admission slot — the in-flight gauge returns to zero and
// the next query is admitted.
func TestClientDisconnectReleasesSlot(t *testing.T) {
	svc := newTestService(t, Config{Slots: 1, MaxQueue: -1}, 20_000)
	handler, done := handlerDone(svc.Handler())
	srv := httptest.NewUnstartedServer(handler)
	srv.Listener = tinyBufListener{srv.Listener}
	srv.Start()
	defer srv.Close()
	httpClient := tinyBufClient()
	defer httpClient.CloseIdleConnections()
	client := NewClient(srv.URL, httpClient)

	rows, err := client.QueryContext(context.Background(), mixQ1)
	if err != nil {
		t.Fatal(err)
	}
	// Read a prefix, then hang up mid-stream.
	for i := 0; i < 5; i++ {
		if !rows.Next() {
			t.Fatalf("stream ended early: %v", rows.Err())
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if m := rows.Metrics(); m != nil {
		t.Fatalf("metrics after disconnect = %+v, want nil (no confirmed trailer)", m)
	}
	<-done
	requireInFlightZero(t, svc)
	if _, err := windowdb.Collect(context.Background(), svc, mixQ1); err != nil {
		t.Fatalf("slot not released after disconnect: %v", err)
	}
	// The cut stream classifies as aborted — not as a fast success.
	stats := svc.Stats()
	if stats.Aborted != 1 {
		t.Fatalf("aborted = %d, want 1", stats.Aborted)
	}
	if stats.Queries != 1 { // only the follow-up buffered query
		t.Fatalf("queries = %d, want 1 (the aborted stream must not count)", stats.Queries)
	}
}

// TestStreamMaxRowsTruncates: the HTTP layer's max_rows stops the stream
// and marks the trailer.
func TestStreamMaxRowsTruncates(t *testing.T) {
	svc := newTestService(t, Config{Slots: 1}, 1000)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, err := srv.Client().Post(srv.URL+"/query", "application/json",
		strings.NewReader(`{"sql":"SELECT ws_order_number FROM web_sales","stream":true,"max_rows":3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeNDJSON {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var lines int
	for _, b := range raw {
		if b == '\n' {
			lines++
		}
	}
	body := string(raw)
	if lines != 5 { // header + 3 rows + trailer
		t.Fatalf("got %d lines:\n%s", lines, body)
	}
	if !strings.Contains(body, `"truncated":true`) {
		t.Fatalf("trailer not marked truncated:\n%s", body)
	}
	requireInFlightZero(t, svc)

	// Exact boundary: max_rows equal to the result size is a complete
	// delivery — not truncated, classified as a query, not an abort.
	abortedBefore := svc.Stats().Aborted
	resp, err = srv.Client().Post(srv.URL+"/query", "application/json",
		strings.NewReader(`{"sql":"SELECT empnum FROM emptab","stream":true,"max_rows":10}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"truncated":true`) {
		t.Fatalf("exact-boundary stream marked truncated:\n%s", raw)
	}
	requireInFlightZero(t, svc)
	if got := svc.Stats().Aborted; got != abortedBefore {
		t.Fatalf("exact-boundary stream counted aborted (%d -> %d)", abortedBefore, got)
	}
}

// TestServiceQueryerConformsToEngine: Service and Engine implement the
// same interface; a window-less statement streams identically.
func TestServiceQueryerConformsToEngine(t *testing.T) {
	svc := newTestService(t, Config{Slots: 1}, 100)
	var q windowdb.Queryer = svc
	st, err := q.PrepareContext(context.Background(), `SELECT empnum FROM emptab ORDER BY empnum`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 2; i++ {
		rows, err := st.QueryContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var n int
		for rows.Next() {
			n++
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		if n != 10 {
			t.Fatalf("run %d: %d rows, want 10", i, n)
		}
	}
}
