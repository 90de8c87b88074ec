package shard

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/datagen"
	"repro/internal/service"
	"repro/internal/sql"
	"repro/internal/storage"
)

// newHTTPCluster boots n shard windserve handlers on httptest servers and
// forms a cluster over HTTP transports — the real multi-process topology,
// minus the sockets' processes.
func newHTTPCluster(t *testing.T, n int, rows int) *Cluster {
	t.Helper()
	shards := make([]Transport, n)
	for i := range shards {
		eng := windowdb.New(testEngineConfig())
		srv := httptest.NewServer(service.New(eng, service.Config{ShardRoutes: true}).Handler())
		t.Cleanup(srv.Close)
		shards[i] = NewHTTP(srv.URL, srv.Client())
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
	return c
}

// TestHTTPTransportRoundTrip: registration, scatter, shuffle (keyed and
// keyless) and replica all riding /shard/* over real HTTP, value-identical to the single
// engine (the wire codec must preserve value kinds exactly — the
// fingerprints are canonical tuple encodings).
func TestHTTPTransportRoundTrip(t *testing.T) {
	const rows = 800
	c := newHTTPCluster(t, 2, rows)
	ctx := context.Background()
	eng := singleEngine(rows)
	for _, tc := range []struct {
		sql, route string
	}{
		{q6SQL, "scatter"},
		{keylessSQL, "shuffle"},
		{divergeSQL, "shuffle"},
		{`SELECT empnum, salary FROM emptab`, "replica"},
	} {
		ref, err := eng.Query(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		res, err := windowdb.Collect(ctx, c, tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.route, err)
		}
		if res.Route != tc.route {
			t.Fatalf("route %q, want %q", res.Route, tc.route)
		}
		if !slices.Equal(canonical(res.Table), canonical(ref.Table)) {
			t.Fatalf("%s over HTTP differs from single engine", tc.route)
		}
	}
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards != 2 || stats.Queries != 4 || stats.Shuffle != 2 {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.ShardShuffleRounds == 0 {
		t.Fatal("shuffle stages over HTTP not counted on the nodes")
	}
}

// TestRegisterNonFiniteOverHTTP: a table holding NaN, ±Inf, an INT past
// 2^53 and NULLs registers sharded on two HTTP nodes — its rows cross as
// frames, which carry every value the engine holds — and reads back, bare
// and through a window function, exactly as over in-process nodes.
func TestRegisterNonFiniteOverHTTP(t *testing.T) {
	tab := storage.NewTable(storage.NewSchema(
		storage.Column{Name: "k", Type: storage.TypeInt},
		storage.Column{Name: "f", Type: storage.TypeFloat},
		storage.Column{Name: "s", Type: storage.TypeString},
	))
	for i, f := range []storage.Value{
		storage.Float(math.NaN()), storage.Float(math.Inf(1)), storage.Float(math.Inf(-1)), storage.Null,
		storage.Float(-0.5), storage.Float(math.NaN()), storage.Float(2), storage.Float(math.Inf(1)),
	} {
		k, str := storage.Int(int64(i%3)), storage.StringVal(strconv.Itoa(i))
		switch i {
		case 1:
			k = storage.Int(1<<53 + 1)
		case 4:
			k = storage.Null
		case 6:
			str = storage.Null
		}
		tab.MustAppend(storage.Tuple{k, f, str})
	}
	ctx := context.Background()
	results := map[string][][]string{}
	for name, tr := range map[string]func() Transport{
		"local": func() Transport {
			return NewLocal(service.New(windowdb.New(testEngineConfig()), service.Config{}))
		},
		"http": func() Transport {
			srv := httptest.NewServer(service.New(windowdb.New(testEngineConfig()), service.Config{ShardRoutes: true}).Handler())
			t.Cleanup(srv.Close)
			return NewHTTP(srv.URL, srv.Client())
		},
	} {
		c, err := New(Config{Engine: testEngineConfig()}, []Transport{tr(), tr()})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RegisterSharded(ctx, "t", tab, "k"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, q := range []string{`SELECT k, f, s FROM t`, `SELECT k, f, s, rank() OVER (PARTITION BY s ORDER BY f) AS r FROM t`} {
			res, err := windowdb.Collect(ctx, c, q)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, q, err)
			}
			results[name] = append(results[name], canonical(res.Table))
		}
	}
	if len(results["http"][0]) != tab.Len() {
		t.Fatalf("read back %d rows over HTTP, registered %d", len(results["http"][0]), tab.Len())
	}
	for i := range results["local"] {
		if !slices.Equal(results["http"][i], results["local"][i]) {
			t.Fatalf("statement %d reads back differently over HTTP than in process", i)
		}
	}
}

// TestHTTPErrorTaxonomy: remote errors unwrap to the same sentinels as
// local ones, so errors.Is sees through the transport.
func TestHTTPErrorTaxonomy(t *testing.T) {
	c := newHTTPCluster(t, 2, 100)
	_, err := windowdb.Collect(context.Background(), c, q6SQL+` GARBAGE TRAILING`)
	if !errors.Is(err, sql.ErrParse) {
		t.Fatalf("got %v, want ErrParse through RemoteError", err)
	}
	var re *RemoteError
	if errors.As(err, &re) {
		t.Fatalf("parse errors are coordinator-side, got remote %v", re)
	}
}

// TestUnknownModeErrorsOnBothTransports: a node stream's mode is full or
// segment on either transport — neither runs anything else as a full
// statement, the retired "local" of a stale coordinator included — and over
// HTTP a bad mode is the caller's fault.
func TestUnknownModeErrorsOnBothTransports(t *testing.T) {
	svc := service.New(windowdb.New(testEngineConfig()), service.Config{ShardRoutes: true})
	svc.Engine().Register("emptab", datagen.Emptab())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	ctx := context.Background()
	for name, tr := range map[string]Transport{"local": NewLocal(svc), "http": NewHTTP(srv.URL, nil)} {
		for _, mode := range []string{"", "segmnet", "FULL", "local"} {
			rows, err := tr.QueryStream(ctx, service.ShardQueryRequest{Mode: mode, Stage: service.Stage{SQL: `SELECT empnum FROM emptab`}})
			if err == nil {
				rows.Close()
				t.Errorf("%s: mode %q streamed", name, mode)
				continue
			}
			if re := (*RemoteError)(nil); name == "http" && (!errors.As(err, &re) || re.Status != http.StatusBadRequest) {
				t.Errorf("%s: mode %q failed with %v, want a 400", name, mode, err)
			}
		}
		rows, err := tr.QueryStream(ctx, service.ShardQueryRequest{Mode: string(ModeFull), Stage: service.Stage{SQL: `SELECT empnum FROM emptab`}})
		if err != nil {
			t.Fatalf("%s: full mode: %v", name, err)
		}
		rows.Close()
	}
}

// TestRefusedStageIsAServerFault: a node refusing its coordinator's stage —
// a plan that does not bind, a delivery out of turn — is the cluster's
// fault, not the end client's, so the coordinator's /query answers it 500,
// kind "refused", over in-process and HTTP nodes alike. (HTTP nodes deliver
// to each other, past the coordinator's transports, so only in-process
// nodes get a duplicated or a cut delivery.)
func TestRefusedStageIsAServerFault(t *testing.T) {
	for _, tc := range []struct {
		transport string
		fault     fault
		sql       string
	}{
		{"local", corruptPlan, q6SQL},
		{"local", corruptPlan, keylessSQL},
		{"local", duplicate, keylessSQL},
		{"local", cutBody, keylessSQL},
		{"http", corruptPlan, q6SQL},
		{"http", corruptPlan, keylessSQL},
	} {
		name := tc.transport + " " + tc.fault.String() + " " + tc.sql[:40]
		nodes := make([]Transport, 2)
		for i := range nodes {
			svc := service.New(windowdb.New(testEngineConfig()), service.Config{ShardRoutes: true})
			nodes[i] = NewLocal(svc)
			if tc.transport == "http" {
				srv := httptest.NewServer(svc.Handler())
				t.Cleanup(srv.Close)
				nodes[i] = NewHTTP(srv.URL, srv.Client())
			}
		}
		c, sched := faultClusterOver(t, 600, nodes)
		front := httptest.NewServer(c.Handler())
		t.Cleanup(front.Close)
		sc := &schedule{fault: tc.fault, nodes: len(nodes)}
		sched.Store(sc)
		resp, err := front.Client().Get(front.URL + "/query?q=" + url.QueryEscape(tc.sql))
		if err != nil {
			t.Fatal(err)
		}
		var body struct{ Error, Kind string }
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		switch {
		case err != nil:
			t.Fatalf("%s: %v", name, err)
		case !sc.fired.Load():
			t.Fatalf("%s: the fault never fired", name)
		case resp.StatusCode != http.StatusInternalServerError || body.Kind != "refused":
			t.Fatalf("%s: %d %q (%s), want 500 \"refused\"", name, resp.StatusCode, body.Kind, body.Error)
		}
	}
}

// TestCoordinatorHandler drives the coordinator's own HTTP front end over
// an HTTP-transport cluster: the full two-hop path a real deployment
// serves.
func TestCoordinatorHandler(t *testing.T) {
	const rows = 600
	c := newHTTPCluster(t, 2, rows)
	front := httptest.NewServer(c.Handler())
	defer front.Close()

	// Healthz fans out.
	resp, err := front.Client().Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}

	// A scatter query through POST /query.
	body := `{"sql": "` + strings.ReplaceAll(q6SQL, "\n", " ") + `", "max_rows": 5}`
	resp, err = front.Client().Post(front.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query: %s", resp.Status)
	}
	var qr struct {
		RowCount   int    `json:"row_count"`
		Route      string `json:"route"`
		ShardsUsed int    `json:"shards_used"`
		Truncated  bool   `json:"truncated"`
		Rows       [][]any
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.RowCount != rows || qr.Route != "scatter" || qr.ShardsUsed != 2 || !qr.Truncated || len(qr.Rows) != 5 {
		t.Fatalf("coordinator /query response: %+v", qr)
	}

	// /stats aggregates the shards.
	resp, err = front.Client().Get(front.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ClusterStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 || st.Scatter != 1 || len(st.ShardStats) != 2 {
		t.Fatalf("coordinator /stats: %+v", st)
	}

	// An unknown table through the front end is a 404 with the taxonomy
	// kind.
	resp, err = front.Client().Get(front.URL + "/query?q=SELECT+x+FROM+missing")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown table: %s", resp.Status)
	}
}

// TestMixedTopologyShuffleFallback: there is none. A cluster mixing
// in-process and HTTP transports cannot run the shuffle data plane (a remote
// node has no address for an in-process peer), and every chain the shard key
// does not cover needs it — New says so instead of building the cluster.
func TestMixedTopologyShuffleFallback(t *testing.T) {
	srv := httptest.NewServer(service.New(windowdb.New(testEngineConfig()), service.Config{ShardRoutes: true}).Handler())
	t.Cleanup(srv.Close)
	shards := []Transport{
		NewLocal(service.New(windowdb.New(testEngineConfig()), service.Config{})),
		NewHTTP(srv.URL, srv.Client()),
	}
	c, err := New(Config{Engine: testEngineConfig()}, shards)
	if err == nil || c != nil || !strings.Contains(err.Error(), "1 of 2 shard transports are addressable") {
		t.Fatalf("New over a half-addressable topology = %v, %v, want an error naming it", c, err)
	}
}

// TestHealthFanoutFailure: a dead shard turns the coordinator unhealthy.
func TestHealthFanoutFailure(t *testing.T) {
	eng := windowdb.New(testEngineConfig())
	alive := httptest.NewServer(service.New(eng, service.Config{}).Handler())
	defer alive.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	c, err := New(Config{Engine: testEngineConfig()}, []Transport{
		NewHTTP(alive.URL, alive.Client()),
		NewHTTP(deadURL, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("health must fail with a dead shard")
	}
	front := httptest.NewServer(c.Handler())
	defer front.Close()
	resp, err := front.Client().Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("coordinator healthz with dead shard: %s", resp.Status)
	}
}

// TestHTTPAppendRidesFrames: a coordinator's routed append reaches its
// owning nodes on the plane every other node-bound row rides — POST /append
// bodies of binary frames, the watermark in the query string — and lands
// row for row what the same append lands on an in-process cluster.
func TestHTTPAppendRidesFrames(t *testing.T) {
	const base, extra = 400, 25
	ctx := context.Background()
	var mu sync.Mutex
	var bodies []string // Content-Type of every /append a node was sent
	shards := make([]Transport, 2)
	for i := range shards {
		node := service.New(windowdb.New(testEngineConfig()), service.Config{ShardRoutes: true}).Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/append" {
				mu.Lock()
				bodies = append(bodies, r.Header.Get("Content-Type")+" "+r.URL.RawQuery)
				mu.Unlock()
			}
			node.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		shards[i] = NewHTTP(srv.URL, srv.Client())
	}
	c, err := New(Config{Engine: testEngineConfig()}, shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterSharded(ctx, "web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: base, Seed: 7}), "ws_item_sk"); err != nil {
		t.Fatal(err)
	}
	batch := datagen.NewAppendStream(datagen.AppendStreamConfig{
		Base: datagen.WebSalesConfig{Rows: base, Seed: 7}, Seed: 99,
	}).Next(extra)
	resp, err := c.Append(ctx, "web_sales", batch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RowsAppended != extra || resp.Watermark != 2 {
		t.Fatalf("append response = %+v", resp)
	}
	slices.Sort(bodies)
	want := service.ContentTypeBinary + " table=web_sales&watermark=2"
	if !slices.Equal(bodies, []string{want, want}) {
		t.Fatalf("nodes were sent %q, want two of %q", bodies, want)
	}

	local := newLocalCluster(t, 2, base)
	if _, err := local.Append(ctx, "web_sales", batch, 0); err != nil {
		t.Fatal(err)
	}
	got, err := windowdb.Collect(ctx, c, q6SQL)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := windowdb.Collect(ctx, local, q6SQL)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table.Len() != base+extra || !slices.Equal(canonical(got.Table), canonical(ref.Table)) {
		t.Fatalf("%d rows after the append over HTTP; they differ from the in-process cluster's %d", got.Table.Len(), ref.Table.Len())
	}
}
