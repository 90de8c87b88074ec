package conformance

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	windowdb "repro"
	"repro/internal/datagen"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/trace"
)

// registryBackend is one Queryer whose in-flight query registry is
// reachable — directly for in-process backends, over GET/DELETE
// /debug/queries for remote ones.
type registryBackend struct {
	name string
	q    windowdb.Queryer
	list func(t *testing.T) []trace.QueryInfo
	kill func(t *testing.T, id string) bool
	// wantNodes: the backend is a coordinator whose listing must carry a
	// per-shard-node subtree for a draining query.
	wantNodes bool
	// queried receives once per /query its remote server has answered —
	// the server lets go of a statement when its handler returns, which no
	// response tells the client. Nil for in-process backends.
	queried <-chan struct{}
}

// registryRows sizes this suite's dataset so a remote server cannot push a
// whole result into socket buffers while the client holds back (loopback
// TCP buffers a few MB; 200k rows of 3 int64 columns is well past that):
// the server cursor must still be open — and registered — when the test
// polls.
const registryRows = 200_000

func httpList(srv *httptest.Server) func(t *testing.T) []trace.QueryInfo {
	return func(t *testing.T) []trace.QueryInfo {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/debug/queries")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var infos []trace.QueryInfo
		if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
			t.Fatal(err)
		}
		return infos
	}
}

func httpKill(srv *httptest.Server) func(t *testing.T, id string) bool {
	return func(t *testing.T, id string) bool {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, srv.URL+"/debug/queries/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
}

func registryBackends(t *testing.T) []registryBackend {
	t.Helper()
	ws := datagen.WebSales(datagen.WebSalesConfig{Rows: registryRows, Seed: 11})
	cfg := windowdb.Config{SortMemBytes: 8 << 20, Parallelism: 1}
	newEng := func() *windowdb.Engine {
		eng := windowdb.New(cfg)
		eng.Register("web_sales", ws)
		return eng
	}

	svc := service.New(newEng(), service.Config{Slots: 2})

	remoteSvc := service.New(newEng(), service.Config{Slots: 2})
	remote, remoteQueried := gated(remoteSvc.Handler())
	srv := httptest.NewServer(remote)
	t.Cleanup(srv.Close)
	client := service.NewClientCodec(srv.URL, srv.Client(), service.CodecBinary)

	newCluster := func() *shard.Cluster {
		shards := make([]shard.Transport, 2)
		for i := range shards {
			shards[i] = shard.NewLocal(service.New(windowdb.New(cfg), service.Config{Slots: 2}))
		}
		c, err := shard.New(shard.Config{Engine: cfg}, shards)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RegisterSharded(context.Background(), "web_sales", ws, "ws_item_sk"); err != nil {
			t.Fatal(err)
		}
		return c
	}
	cluster := newCluster()
	coord := newCluster()
	front, frontQueried := gated(coord.Handler())
	coordSrv := httptest.NewServer(front)
	t.Cleanup(coordSrv.Close)
	coordClient := service.NewClientCodec(coordSrv.URL, coordSrv.Client(), service.CodecBinary)

	return []registryBackend{
		{
			name: "service", q: svc,
			list: func(*testing.T) []trace.QueryInfo { return svc.Registry().Snapshot() },
			kill: func(_ *testing.T, id string) bool { return svc.Registry().Kill(id) },
		},
		{
			name: "client-engine", q: client,
			list: httpList(srv), kill: httpKill(srv),
			queried: remoteQueried,
		},
		{
			name: "cluster", q: cluster,
			list: func(*testing.T) []trace.QueryInfo { return cluster.Registry().Snapshot() },
			kill: func(_ *testing.T, id string) bool { return cluster.Registry().Kill(id) },
		},
		{
			name: "client-coordinator", q: coordClient,
			list: httpList(coordSrv), kill: httpKill(coordSrv),
			wantNodes: true, queried: frontQueried,
		},
	}
}

// TestQueryRegistryVisibilityAndKill: on every registry-bearing backend, an
// in-flight query is listed with its statement and live counters — it
// registered before its cursor, or its stream's header, was handed out —
// killing it by ID aborts the stream and has emptied the registry once the
// stream's end has returned, and the backend still serves the same
// statement afterwards. The coordinator's listing
// must additionally merge the shard nodes' matching entries under the
// owning query.
func TestQueryRegistryVisibilityAndKill(t *testing.T) {
	const src = `SELECT ws_item_sk, ws_order_number, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r FROM web_sales`
	for _, bk := range registryBackends(t) {
		t.Run(bk.name, func(t *testing.T) {
			id := trace.NewID()
			ctx := trace.NewContext(context.Background(), id)
			rows, err := bk.q.QueryContext(ctx, src)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if !rows.Next() {
					t.Fatalf("stream ended early: %v", rows.Err())
				}
			}

			// Visibility: the half-drained query is listed under its trace
			// ID with the statement text and a live phase.
			var info *trace.QueryInfo
			for _, qi := range bk.list(t) {
				if qi.ID == id {
					info = &qi
				}
			}
			if info == nil {
				t.Fatalf("query %s is not in the registry", id)
			}
			if info.SQL != src {
				t.Fatalf("registered SQL = %q, want the submitted statement", info.SQL)
			}
			if info.Phase == "" {
				t.Fatal("in-flight query has no phase")
			}
			if bk.wantNodes && len(info.Nodes) == 0 {
				t.Fatal("coordinator listing has no shard-node subtree for the draining query")
			}

			// Kill semantics: DELETE (or a direct registry kill) succeeds,
			// the stream terminates, and the registry drains to empty.
			if !bk.kill(t, id) {
				t.Fatal("kill reported no in-flight query")
			}
			for rows.Next() {
				// A remote stream may complete from socket buffering; an
				// in-process one surfaces the cancellation. Either way the
				// drain must end.
			}
			_ = rows.Close()
			if bk.queried != nil {
				<-bk.queried
			}
			if infos := bk.list(t); len(infos) != 0 {
				t.Fatalf("registry still holds entries after kill: %+v", infos)
			}

			// The backend still serves the statement completely.
			again, err := bk.q.QueryContext(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for again.Next() {
				n++
			}
			if err := again.Err(); err != nil {
				t.Fatal(err)
			}
			if err := again.Close(); err != nil {
				t.Fatal(err)
			}
			if n != registryRows {
				t.Fatalf("post-kill query served %d rows, want %d", n, registryRows)
			}
		})
	}
}
