package shard

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/service"
	"repro/internal/sql"
	"repro/internal/storage"
)

// subSQL is a shard-local maintainable chain (one rank partitioned on the
// shard key, no ORDER BY/DISTINCT/LIMIT).
const subSQL = `SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r FROM web_sales`

// newLocalClusterNodes is newLocalCluster keeping the node services for
// inspection.
func newLocalClusterNodes(t *testing.T, n, rows int) (*Cluster, []*service.Service) {
	t.Helper()
	shards := make([]Transport, n)
	svcs := make([]*service.Service, n)
	for i := range shards {
		svcs[i] = service.New(windowdb.New(testEngineConfig()), service.Config{})
		shards[i] = NewLocal(svcs[i])
	}
	c, err := New(Config{Engine: testEngineConfig()}, shards)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ws := datagen.WebSales(datagen.WebSalesConfig{Rows: rows, Seed: 7})
	if err := c.RegisterSharded(ctx, "web_sales", ws, "ws_item_sk"); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterReplicated(ctx, "emptab", datagen.Emptab()); err != nil {
		t.Fatal(err)
	}
	return c, svcs
}

// TestClusterAppendSharded routes an append through the coordinator and
// asserts row conservation across the nodes, plan-cache survival, and
// value identity with a fresh single engine over the concatenated data.
func TestClusterAppendSharded(t *testing.T) {
	const base, extra = 400, 25
	ctx := context.Background()
	c, svcs := newLocalClusterNodes(t, 3, base)

	// Warm the coordinator plan cache before the append.
	if _, err := windowdb.Collect(ctx, c, q6SQL); err != nil {
		t.Fatal(err)
	}

	batch := datagen.NewAppendStream(datagen.AppendStreamConfig{
		Base: datagen.WebSalesConfig{Rows: base, Seed: 7}, Seed: 99,
	}).Next(extra)
	resp, err := c.Append(ctx, "web_sales", batch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RowsAppended != extra || resp.StartRid != base || resp.Watermark != 2 {
		t.Fatalf("append response = %+v", resp)
	}

	// Every row landed on exactly one node.
	total := 0
	for _, svc := range svcs {
		nt, err := svc.Engine().Table("web_sales")
		if err != nil {
			t.Fatal(err)
		}
		total += nt.Len()
	}
	if total != base+extra {
		t.Fatalf("rows across nodes = %d, want %d", total, base+extra)
	}

	// The coordinator stub's statistics moved with the append.
	entry, err := c.Coordinator().Stats("web_sales")
	if err != nil {
		t.Fatal(err)
	}
	if entry.Rows() != base+extra {
		t.Fatalf("coordinator stub rows = %d, want %d", entry.Rows(), base+extra)
	}

	// The prepared plan survived (appends bump only the data generation)
	// and the re-evaluated result matches a fresh engine over base+batch.
	res, err := windowdb.Collect(ctx, c, q6SQL)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("plan cache flushed by append")
	}
	if res.Table.Len() != base+extra {
		t.Fatalf("post-append result rows = %d, want %d", res.Table.Len(), base+extra)
	}
	ws := datagen.WebSales(datagen.WebSalesConfig{Rows: base, Seed: 7})
	ws.Rows = append(ws.Rows, batch...)
	ref := windowdb.New(testEngineConfig())
	ref.Register("web_sales", ws)
	want, err := ref.Query(q6SQL)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(canonical(res.Table), canonical(want.Table)) {
		t.Fatal("post-append cluster result differs from fresh single engine")
	}

	// Error taxonomy: unknown table and arity mismatch surface at the
	// coordinator before any node sees the batch.
	if _, err := c.Append(ctx, "nosuch", batch, 0); !errors.Is(err, catalog.ErrUnknownTable) {
		t.Errorf("unknown-table append error = %v", err)
	}
	if _, err := c.Append(ctx, "web_sales", []storage.Tuple{{storage.Int(1)}}, 0); err == nil {
		t.Error("arity-mismatch append succeeded")
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Appends != 1 || stats.RowsAppended != uint64(extra) {
		t.Errorf("append counters = %d/%d, want 1/%d", stats.Appends, stats.RowsAppended, extra)
	}
}

// TestClusterInsertReplicated sends an INSERT through the coordinator's
// SQL surface and asserts every replica received the rows.
func TestClusterInsertReplicated(t *testing.T) {
	ctx := context.Background()
	c, svcs := newLocalClusterNodes(t, 2, 100)

	res, err := windowdb.Collect(ctx, c, `INSERT INTO emptab VALUES (11, 20, 4000), (12, 20, NULL)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() != 1 || res.Table.Rows[0][1].Int64() != 2 {
		t.Fatalf("INSERT summary = %v", res.Table.Rows)
	}
	for i, svc := range svcs {
		nt, err := svc.Engine().Table("emptab")
		if err != nil {
			t.Fatal(err)
		}
		if nt.Len() != 12 {
			t.Fatalf("node %d emptab rows = %d, want 12", i, nt.Len())
		}
	}
	// The coordinator keeps a replica too; replica-routed reads see the rows.
	qres, err := windowdb.Collect(ctx, c, `SELECT empnum FROM emptab WHERE empnum >= 11`)
	if err != nil {
		t.Fatal(err)
	}
	if qres.Table.Len() != 2 || qres.Route != "replica" {
		t.Fatalf("post-insert read = %d rows via %q", qres.Table.Len(), qres.Route)
	}
}

// TestClusterAppendHonoursWatermark: the coordinator's /append passes the
// body's watermark on as a lower bound, as a node's does — the routed
// append lands at a generation of at least it, and every node's subscriber
// sees its delta there.
func TestClusterAppendHonoursWatermark(t *testing.T) {
	const atLeast = 1000
	ctx := context.Background()
	c, svcs := newLocalClusterNodes(t, 2, 50)
	subs := make([]*windowdb.Rows, len(svcs))
	for i, svc := range svcs {
		rows, err := svc.QueryContext(ctx, `SUBSCRIBE SELECT empnum, rank() OVER (PARTITION BY dept ORDER BY salary DESC NULLS LAST) AS r FROM emptab`)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		for j := 0; j < 10; j++ {
			if !rows.Next() {
				t.Fatalf("node %d: initial stream ended early: %v", i, rows.Err())
			}
		}
		subs[i] = rows
	}

	rec := httptest.NewRecorder()
	body := `{"table":"emptab","rows":[[{"i":"20"},{"i":"10"},{"i":"1000000"}]],"watermark":` + strconv.Itoa(atLeast) + `}`
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/append", strings.NewReader(body)))
	var resp service.AppendResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("POST /append: %d %s", rec.Code, rec.Body.String())
	}
	if resp.Watermark < atLeast {
		t.Fatalf("append watermark = %d, want at least %d", resp.Watermark, atLeast)
	}
	for i, rows := range subs {
		if !rows.Next() {
			t.Fatalf("node %d: no delta after the append: %v", i, rows.Err())
		}
		if wm := uint64(rows.Row()[4].Int64()); wm != resp.Watermark {
			t.Fatalf("node %d: delta watermark = %d, append watermark = %d", i, wm, resp.Watermark)
		}
	}
}

// TestClusterSubscribe drives the cluster's live loop end to end over
// in-process transports: scatter fan-in of per-node subscriptions,
// cluster-unique rid rewriting, a routed append waking the cursor with a
// converged watermark, and a registry kill draining every node.
func TestClusterSubscribe(t *testing.T) {
	const base = 300
	ctx := context.Background()
	c, _ := newLocalClusterNodes(t, 2, base)

	rows, err := c.QueryContext(ctx, "SUBSCRIBE "+subSQL)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols := rows.Columns()
	if len(cols) != 5 || cols[2] != "_rid" || cols[3] != "_op" || cols[4] != "_watermark" {
		t.Fatalf("columns = %v", cols)
	}
	rids := make(map[int64]bool, base)
	for i := 0; i < base; i++ {
		if !rows.Next() {
			t.Fatalf("initial stream ended early at %d: %v", i, rows.Err())
		}
		r := rows.Row()
		if op := r[3].Str(); op != "init" {
			t.Fatalf("initial row op = %q", op)
		}
		if rid := r[2].Int64(); rids[rid] {
			t.Fatalf("duplicate cluster rid %d", rid)
		} else {
			rids[rid] = true
		}
	}

	// The subscription is registered and killable at the coordinator.
	infos := c.Registry().Snapshot()
	if len(infos) != 1 || !strings.HasPrefix(infos[0].SQL, "SUBSCRIBE") {
		t.Fatalf("subscription not registered: %+v", infos)
	}
	id := infos[0].ID

	// A routed append wakes the cursor; the delta carries the
	// coordinator-assigned watermark and a fresh cluster-unique rid.
	batch := datagen.NewAppendStream(datagen.AppendStreamConfig{
		Base: datagen.WebSalesConfig{Rows: base, Seed: 7}, Seed: 4, HotItems: 2,
	}).Next(8)
	resp, err := c.Append(ctx, "web_sales", batch, 0)
	if err != nil {
		t.Fatal(err)
	}
	sawAppend := false
	for !sawAppend {
		if !rows.Next() {
			t.Fatalf("stream ended before delta: %v", rows.Err())
		}
		r := rows.Row()
		switch op := r[3].Str(); op {
		case "append":
			sawAppend = true
			if wm := uint64(r[4].Int64()); wm != resp.Watermark {
				t.Fatalf("delta watermark = %d, append watermark = %d", wm, resp.Watermark)
			}
			if rid := r[2].Int64(); rids[rid] {
				t.Fatalf("appended row reused rid %d", rid)
			}
		case "upsert", "init":
		default:
			t.Fatalf("unexpected delta op %q", op)
		}
	}

	// Kill through the registry (what DELETE /debug/queries/{id} fires):
	// the cursor ends, and by then every node has handed back its slot and
	// subscription.
	if !c.Registry().Kill(id) {
		t.Fatalf("kill %s failed", id)
	}
	for rows.Next() {
	}
	requireIdle(t, c)
}

// TestClusterSubscribeRejects covers the statements a cluster cannot
// maintain: non-shard-local chains, non-maintainable shapes, and buffered
// drains.
func TestClusterSubscribeRejects(t *testing.T) {
	ctx := context.Background()
	c, _ := newLocalClusterNodes(t, 2, 50)

	// keylessSQL's chain is not shard-local: its maintenance state would
	// span nodes.
	if _, err := c.QueryContext(ctx, "SUBSCRIBE "+keylessSQL); !errors.Is(err, sql.ErrBind) {
		t.Errorf("non-shard-local SUBSCRIBE error = %v", err)
	}
	if _, err := c.QueryContext(ctx, "SUBSCRIBE "+subSQL+" ORDER BY ws_item_sk"); !errors.Is(err, sql.ErrBind) {
		t.Errorf("ORDER BY SUBSCRIBE error = %v", err)
	}
	if _, err := windowdb.Collect(ctx, c, "SUBSCRIBE "+subSQL); !errors.Is(err, sql.ErrBind) {
		t.Errorf("buffered SUBSCRIBE error = %v", err)
	}
	if _, err := c.QueryContext(ctx, `SUBSCRIBE SELECT empnum FROM nosuch`); !errors.Is(err, catalog.ErrUnknownTable) {
		t.Errorf("unknown-table SUBSCRIBE error = %v", err)
	}
}

// TestClusterSubscribeReplica subscribes to a replicated table: the whole
// subscription serves from one node, whose replica sees every cluster
// append.
func TestClusterSubscribeReplica(t *testing.T) {
	ctx := context.Background()
	c, _ := newLocalClusterNodes(t, 2, 50)

	rows, err := c.QueryContext(ctx, `SUBSCRIBE SELECT empnum, rank() OVER (PARTITION BY dept ORDER BY salary DESC NULLS LAST) AS r FROM emptab`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	for i := 0; i < 10; i++ {
		if !rows.Next() {
			t.Fatalf("initial stream ended early: %v", rows.Err())
		}
	}
	resp, err := c.Append(ctx, "emptab", []storage.Tuple{{storage.Int(20), storage.Int(10), storage.Int(1000000)}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no delta after replicated append: %v", rows.Err())
	}
	r := rows.Row()
	if op := r[3].Str(); op != "append" && op != "upsert" {
		t.Fatalf("delta op = %q", op)
	}
	if wm := uint64(r[4].Int64()); wm != resp.Watermark {
		t.Fatalf("delta watermark = %d, append watermark = %d", wm, resp.Watermark)
	}
	rows.Close()
	requireIdle(t, c)
}

// TestClusterSubscribeEndWaitsForNodes: closing a cluster subscription
// returns only once every node stream has ended — a node stream still
// ending holds the coordinator's Close — so the nodes hold nothing once it
// has returned.
func TestClusterSubscribeEndWaitsForNodes(t *testing.T) {
	c, sched := faultCluster(t, 2, 100, service.Config{})
	sc := &schedule{nodes: 2, parked: make(chan struct{}), park: make(chan struct{})}
	sched.Store(sc)
	rows, err := c.QueryContext(context.Background(), "SUBSCRIBE "+subSQL)
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		_ = rows.Close()
		close(closed)
	}()
	<-sc.parked
	select {
	case <-closed:
		t.Fatal("the subscription's Close returned while a node stream was still ending")
	default:
	}
	close(sc.park)
	<-closed
	requireIdle(t, c)
}
