package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	windowdb "repro"
	"repro/internal/datagen"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/trace"
)

// The endings matrix: every way a statement can end — drained, closed
// early, its caller's context cancelled, killed through the registry, its
// deadline passed, the front end's default timeout passed, an error —
// against every way a front end serves one — the buffered /query body and
// the streamed cursor of a service and of a cluster coordinator, a
// subscription and an INSERT on each. Each cell asserts what
// the front end counted (served, aborted or failed, exactly one of them)
// and that nothing the statement held is still held once its end has
// returned — read at once, not waited for.

// tally is a front end's three outcome counters.
type tally struct{ queries, aborted, failures uint64 }

func (a tally) sub(b tally) tally {
	return tally{a.queries - b.queries, a.aborted - b.aborted, a.failures - b.failures}
}

var (
	served  = tally{queries: 1}
	aborted = tally{aborted: 1}
	failed  = tally{failures: 1}
)

const (
	endingSQL    = `SELECT ws_item_sk, ws_order_number, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r FROM web_sales`
	endingBadSQL = `SELECT nosuch FROM web_sales`
	// A subscription that cannot be maintained fails when it is opened,
	// after it was admitted.
	endingBadSubSQL = `SUBSCRIBE ` + endingSQL + ` ORDER BY r`
	endingInsertSQL = `INSERT INTO web_sales VALUES (2450001, 1, 2450002, 1, 1, 1, 5, 1.5, 2.5, 2.0, 999999, 'x')`
)

// endingRows is the web_sales the matrix's front ends hold: four batches
// of endingSQL's three columns, so a statement cut after three rows still
// has rows in flight on one node, and on each of a cluster's two.
var endingRows = 4 * stream.BatchRows(3)

func endingTable() *storage.Table {
	return datagen.WebSales(datagen.WebSalesConfig{Rows: endingRows, Seed: 11})
}

// endingFront is one front end under the matrix.
type endingFront struct {
	name  string
	q     windowdb.Queryer
	tally func() tally
	// held names what statements hold on the front end — its
	// Snapshot.Held, or a coordinator's ClusterStats.Held — "" when nothing.
	held func() string
	kill func(id string) bool
	// registered reports whether the statement with this trace ID has
	// reached the front end's registry.
	registered func(id string) bool
	// front is the HTTP front end; done receives once per request its
	// handler has returned from.
	front *httptest.Server
	done  chan struct{}
}

// gated wraps a front end so that every /query request sends on the
// returned channel once its handler has returned: a server lets go of a
// statement then, which no response tells its client.
func gated(h http.Handler) (http.Handler, chan struct{}) {
	done := make(chan struct{}, 64) // every request of a cell sends before the cell reads
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.URL.Path == "/query" {
			done <- struct{}{}
		}
	}), done
}

// newServiceFront is a one-slot service: one open cursor holds everything
// a second statement needs.
func newServiceFront(t *testing.T, fc service.FrontConfig) *endingFront {
	eng := newEngine()
	eng.Register("web_sales", endingTable())
	svc := service.New(eng, service.Config{FrontConfig: fc, Slots: 1})
	h, done := gated(svc.Handler())
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return &endingFront{
		name: "service", q: svc, front: srv, done: done,
		tally: func() tally {
			st := svc.Stats()
			return tally{st.Queries, st.Aborted, st.Failures}
		},
		held:       func() string { return svc.Stats().Held() },
		kill:       svc.Registry().Kill,
		registered: func(id string) bool { return svc.Registry().Get(id) != nil },
	}
}

// newClusterFront is a coordinator over two one-slot nodes.
func newClusterFront(t *testing.T, fc service.FrontConfig) *endingFront {
	ws := endingTable()
	nodes := make([]*service.Service, 2)
	shards := make([]shard.Transport, len(nodes))
	for i := range nodes {
		nodes[i] = service.New(windowdb.New(engCfg()), service.Config{Slots: 1})
		shards[i] = shard.NewLocal(nodes[i])
	}
	c, err := shard.New(shard.Config{FrontConfig: fc, Engine: engCfg()}, shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterSharded(context.Background(), "web_sales", ws, "ws_item_sk"); err != nil {
		t.Fatal(err)
	}
	h, done := gated(c.Handler())
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return &endingFront{
		name: "cluster", q: c, front: srv, done: done,
		tally: func() tally {
			st, err := c.Stats(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return tally{st.Queries, st.Aborted, st.Failures}
		},
		held: func() string {
			st, err := c.Stats(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return st.Held()
		},
		kill:       c.Registry().Kill,
		registered: func(id string) bool { return c.Registry().Get(id) != nil },
	}
}

// cell runs one ending and holds the front end to what it should have
// counted and to having let go of everything.
func (f *endingFront) cell(t *testing.T, ending string, want tally, run func(t *testing.T)) {
	t.Run(ending, func(t *testing.T) {
		before := f.tally()
		run(t)
		if held := f.held(); held != "" {
			t.Fatalf("held after the statement ended: %s", held)
		}
		if got := f.tally().sub(before); got != want {
			t.Fatalf("counted %+v, want %+v", got, want)
		}
	})
}

// read advances a cursor n rows.
func read(t *testing.T, rows *windowdb.Rows, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if !rows.Next() {
			t.Fatalf("stream ended after %d rows: %v", i, rows.Err())
		}
	}
}

// cursorEndings runs the endings of a statement served as a cursor. live
// marks a subscription, which never drains; closeIsServed is the one
// difference between front ends the matrix allows: a coordinator counts a
// subscription its caller closed, or walked away from, as served.
func (f *endingFront) cursorEndings(t *testing.T, src, badSrc string, live, closeIsServed bool) {
	open := func(t *testing.T, ctx context.Context) *windowdb.Rows {
		t.Helper()
		rows, err := f.q.QueryContext(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	walkedAway := aborted
	if closeIsServed {
		walkedAway = served
	}
	if !live {
		f.cell(t, "drained", served, func(t *testing.T) {
			rows := open(t, context.Background())
			for rows.Next() {
			}
			if err := rows.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
	f.cell(t, "closed early", walkedAway, func(t *testing.T) {
		rows := open(t, context.Background())
		read(t, rows, 3)
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
	})
	f.cell(t, "context cancelled", walkedAway, func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rows := open(t, ctx)
		read(t, rows, 3)
		cancel()
		for rows.Next() {
		}
		if err := rows.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
	f.cell(t, "killed", aborted, func(t *testing.T) {
		id := trace.NewID()
		rows := open(t, trace.NewContext(context.Background(), id))
		read(t, rows, 3)
		if !f.kill(id) {
			t.Fatal("kill found no such statement")
		}
		for rows.Next() {
		}
		if rows.Err() == nil {
			t.Fatal("a killed statement drained cleanly")
		}
	})
	f.cell(t, "deadline exceeded", failed, func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		rows, err := f.q.QueryContext(ctx, src)
		if err == nil {
			defer rows.Close()
			for i := 0; i < 3 && rows.Next(); i++ {
			}
			// Err takes the lock the deadline cancels the derived contexts
			// under: once it returns, every one of them has ended.
			<-ctx.Done()
			_ = ctx.Err()
			for rows.Next() {
			}
			err = rows.Err()
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	})
	f.cell(t, "error", failed, func(t *testing.T) {
		rows, err := f.q.QueryContext(context.Background(), badSrc)
		if err == nil {
			rows.Close()
			t.Fatal("a statement that cannot run opened a cursor")
		}
	})
}

// post sends one buffered /query and waits for its handler to return.
func (f *endingFront) post(ctx context.Context, id string, body map[string]any) (status int, decoded map[string]any, err error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.front.URL+"/query", bytes.NewReader(buf))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(trace.HeaderTraceID, id)
	}
	resp, err := f.front.Client().Do(req)
	<-f.done
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&decoded)
	return resp.StatusCode, decoded, err
}

// bufferedEndings runs the endings of a statement served as a buffered
// /query body. A buffered caller cannot stop half way, so the endings that
// interrupt a statement reach it while it waits for admission behind a
// cursor that holds every slot it needs.
func (f *endingFront) bufferedEndings(t *testing.T) {
	behindACursor := func(t *testing.T, run func(t *testing.T)) func(t *testing.T) {
		return func(t *testing.T) {
			holder, err := f.q.QueryContext(context.Background(), endingSQL)
			if err != nil {
				t.Fatal(err)
			}
			defer holder.Close()
			read(t, holder, 1)
			run(t)
		}
	}
	// The holder's own early close is an abort; it happens after run, within
	// the cell.
	plus := func(a, b tally) tally {
		return tally{a.queries + b.queries, a.aborted + b.aborted, a.failures + b.failures}
	}
	// waitRegistered yields until the goroutine posting id has got as far
	// as the front end's registry — it waits for a statement to arrive,
	// never for one to let go — and fails the cell if it never does.
	waitRegistered := func(t *testing.T, id string) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !f.registered(id); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("statement %s never reached the registry", id)
			}
		}
	}

	f.cell(t, "drained", served, func(t *testing.T) {
		status, body, err := f.post(context.Background(), "", map[string]any{"sql": endingSQL})
		if err != nil || status != http.StatusOK || body["row_count"] != float64(endingRows) {
			t.Fatalf("status %d, row_count %v, err %v", status, body["row_count"], err)
		}
	})
	f.cell(t, "cut by max_rows", served, func(t *testing.T) {
		status, body, err := f.post(context.Background(), "", map[string]any{"sql": endingSQL, "max_rows": 3})
		if err != nil || status != http.StatusOK || body["row_count"] != float64(endingRows) || body["truncated"] != true {
			t.Fatalf("status %d, row_count %v, truncated %v, err %v", status, body["row_count"], body["truncated"], err)
		}
	})
	f.cell(t, "client gone", plus(aborted, aborted), behindACursor(t, func(t *testing.T) {
		id := trace.NewID()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		gone := make(chan error, 1)
		go func() {
			_, _, err := f.post(ctx, id, map[string]any{"sql": endingSQL})
			gone <- err
		}()
		waitRegistered(t, id)
		cancel()
		if err := <-gone; !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	}))
	f.cell(t, "killed", plus(aborted, aborted), behindACursor(t, func(t *testing.T) {
		id := trace.NewID()
		answered := make(chan int, 1)
		go func() {
			status, _, _ := f.post(context.Background(), id, map[string]any{"sql": endingSQL})
			answered <- status
		}()
		waitRegistered(t, id)
		if !f.kill(id) {
			t.Fatal("kill found no such statement")
		}
		if status := <-answered; status != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", status)
		}
	}))
	f.cell(t, "deadline exceeded", plus(failed, aborted), behindACursor(t, func(t *testing.T) {
		status, body, err := f.post(context.Background(), "", map[string]any{"sql": endingSQL, "timeout_ms": 50})
		if err != nil || status != http.StatusServiceUnavailable || body["kind"] != "timeout" {
			t.Fatalf("status %d, kind %v, err %v", status, body["kind"], err)
		}
	}))
	f.cell(t, "error", failed, func(t *testing.T) {
		status, body, err := f.post(context.Background(), "", map[string]any{"sql": endingBadSQL})
		if err != nil || status != http.StatusBadRequest || body["kind"] != "bind" {
			t.Fatalf("status %d, kind %v, err %v", status, body["kind"], err)
		}
	})
}

// insertEndings runs the endings of an INSERT, which is counted when its
// append returns: served, or failed — a parse error, an append the table
// refuses, a caller's context cancelled before it ran.
func (f *endingFront) insertEndings(t *testing.T) {
	insert := func(ctx context.Context, src string) error {
		rows, err := f.q.QueryContext(ctx, src)
		if err == nil {
			rows.Close()
		}
		return err
	}
	f.cell(t, "appended", served, func(t *testing.T) {
		if err := insert(context.Background(), endingInsertSQL); err != nil {
			t.Fatal(err)
		}
	})
	f.cell(t, "parse error", failed, func(t *testing.T) {
		if err := insert(context.Background(), `INSERT INTO web_sales VALUES (`); !errors.Is(err, sql.ErrParse) {
			t.Fatalf("err = %v, want sql.ErrParse", err)
		}
	})
	f.cell(t, "append error", failed, func(t *testing.T) {
		if err := insert(context.Background(), `INSERT INTO web_sales VALUES (1)`); err == nil {
			t.Fatal("a row of the wrong arity was appended")
		}
	})
	f.cell(t, "context cancelled", failed, func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := insert(ctx, endingInsertSQL); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
}

// defaultTimeoutEnding: a statement with no deadline of its own waits for
// admission behind a cursor that holds every slot it needs until the front
// end's DefaultTimeout passes. The holder carries a deadline of its own, so
// the default leaves it alone; its early close is the cell's abort.
func (f *endingFront) defaultTimeoutEnding(t *testing.T) {
	f.cell(t, "default timeout", tally{aborted: 1, failures: 1}, func(t *testing.T) {
		hctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		holder, err := f.q.QueryContext(hctx, endingSQL)
		if err != nil {
			t.Fatal(err)
		}
		defer holder.Close()
		read(t, holder, 1)
		rows, err := f.q.QueryContext(context.Background(), endingSQL)
		if err == nil {
			rows.Close()
			t.Fatal("a statement behind a held slot opened a cursor")
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	})
}

func TestEndingsMatrix(t *testing.T) {
	for _, newFront := range []func(*testing.T, service.FrontConfig) *endingFront{newServiceFront, newClusterFront} {
		f := newFront(t, service.FrontConfig{})
		t.Run(f.name+"/buffered", f.bufferedEndings)
		t.Run(f.name+"/streamed", func(t *testing.T) { f.cursorEndings(t, endingSQL, endingBadSQL, false, false) })
		if f.name == "cluster" {
			t.Run("cluster/streamed-shuffle", func(t *testing.T) { f.cursorEndings(t, divergentSQL, endingBadSQL, false, false) })
			t.Run("cluster/streamed-keyless", func(t *testing.T) { f.cursorEndings(t, keylessSQL, endingBadSQL, false, false) })
		}
		t.Run(f.name+"/subscription", func(t *testing.T) {
			f.cursorEndings(t, "SUBSCRIBE "+endingSQL, endingBadSubSQL, true, f.name == "cluster")
		})
		t.Run(f.name+"/insert", f.insertEndings)
		timed := newFront(t, service.FrontConfig{DefaultTimeout: 100 * time.Millisecond})
		t.Run(f.name+"/default-timeout", timed.defaultTimeoutEnding)
	}
}
