// Package conformance holds the shared Queryer contract suite: every
// backend of the repository — in-process Engine, admission-controlled
// service.Service, remote service.Client over /query in both wire
// codecs (binary columnar frames and the legacy NDJSON stream, against
// both a single-engine windserve and a cluster coordinator), and the
// scatter-gather shard.Cluster over local and binary-framed HTTP
// transports — must serve the same values, the same ORDER BY order,
// the same DISTINCT/LIMIT semantics and the same error taxonomy
// through the one Rows cursor surface.
package conformance

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	windowdb "repro"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/gen"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/trace"
)

const dataRows = 2000

func dataset() (*storage.Table, *storage.Table) {
	return datagen.WebSales(datagen.WebSalesConfig{Rows: dataRows, Seed: 11}), datagen.Emptab()
}

func engCfg() windowdb.Config {
	return windowdb.Config{SortMemBytes: 2 << 20, Parallelism: 1}
}

// variants are web_sales sorted and grouped on ws_quantity, the inputs of
// the paper's Q4 and Q5 (paper.Statements).
func variants() (sorted, grouped *storage.Table) {
	gen := datagen.WebSalesConfig{Rows: dataRows, Seed: 11}
	return datagen.WebSalesSorted(gen), datagen.WebSalesGrouped(gen)
}

func newEngine() *windowdb.Engine {
	ws, emp := dataset()
	sorted, grouped := variants()
	eng := windowdb.New(engCfg())
	eng.Register("web_sales", ws)
	eng.Register("web_sales_s", sorted)
	eng.Register("web_sales_g", grouped)
	eng.Register("emptab", emp)
	eng.Register("edge", edgeTable())
	for i, t := range genTables {
		eng.Register(fmt.Sprintf("gen%d", i), t)
	}
	return eng
}

// genTables are generated tables, one of every shape, registered on every
// backend as gen0, gen1, …: what TestGeneratedStatements queries.
var genTables = gen.Tables(rand.New(rand.NewSource(1)))

// backend is one Queryer under test.
type backend struct {
	name string
	q    windowdb.Queryer
	// ordered reports whether the backend guarantees the single-engine
	// row order even without a total ORDER BY (clusters concatenate
	// per-shard outputs, so only ORDER BY queries have defined order).
	ordered bool
	// front is the HTTP front end behind a remote client backend, nil for
	// the in-process ones: where the wire-only behaviours (max_rows) are
	// reached.
	front *httptest.Server
}

// backends builds every Queryer implementation over the same dataset.
// Cleanups are registered on t.
func backends(t *testing.T) []backend {
	t.Helper()
	ws, emp := dataset()

	eng := newEngine()
	svc := service.New(newEngine(), service.Config{Slots: 2})

	srv := httptest.NewServer(service.New(newEngine(), service.Config{Slots: 2}).Handler())
	t.Cleanup(srv.Close)
	// The remote client in both wire codecs: columnar frames forced on
	// (the default, pinned explicitly so the suite keeps exercising it
	// even if the default moves) and the legacy NDJSON stream.
	client := service.NewClientCodec(srv.URL, srv.Client(), service.CodecBinary)
	clientJSON := service.NewClientCodec(srv.URL, srv.Client(), service.CodecJSON)

	newCluster := func(transport func(i int) shard.Transport) *shard.Cluster {
		shards := make([]shard.Transport, 2)
		for i := range shards {
			shards[i] = transport(i)
		}
		c, err := shard.New(shard.Config{Engine: engCfg()}, shards)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		sorted, grouped := variants()
		for name, table := range map[string]*storage.Table{"web_sales": ws, "web_sales_s": sorted, "web_sales_g": grouped} {
			if err := c.RegisterSharded(ctx, name, table, "ws_item_sk"); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.RegisterReplicated(ctx, "emptab", emp); err != nil {
			t.Fatal(err)
		}
		if err := c.RegisterSharded(ctx, "edge", edgeTable(), "k"); err != nil {
			t.Fatal(err)
		}
		for i, table := range genTables {
			if err := c.RegisterSharded(ctx, fmt.Sprintf("gen%d", i), table, "g"); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	localTransport := func(int) shard.Transport {
		return shard.NewLocal(service.New(windowdb.New(engCfg()), service.Config{Slots: 2}))
	}
	// Real-socket shard transports: the scatter, shuffle and replica planes
	// all cross HTTP as columnar frames here.
	httpTransport := func(int) shard.Transport {
		nodeSrv := httptest.NewServer(service.New(windowdb.New(engCfg()), service.Config{Slots: 2, ShardRoutes: true}).Handler())
		t.Cleanup(nodeSrv.Close)
		return shard.NewHTTP(nodeSrv.URL, nodeSrv.Client())
	}
	cluster := newCluster(localTransport)
	clusterHTTP := newCluster(httpTransport)

	coordSrv := httptest.NewServer(newCluster(localTransport).Handler())
	t.Cleanup(coordSrv.Close)
	coordClient := service.NewClientCodec(coordSrv.URL, coordSrv.Client(), service.CodecBinary)

	return []backend{
		{"engine", eng, true, nil},
		{"service", svc, true, nil},
		{"client-engine", client, true, srv},
		{"client-engine-ndjson", clientJSON, true, srv},
		{"cluster", cluster, false, nil},
		{"cluster-http-binary", clusterHTTP, false, nil},
		{"client-coordinator", coordClient, false, coordSrv},
	}
}

// conformanceQueries exercises the contract dimensions: plain projection,
// window chains, WHERE, total ORDER BY (exact order must match), DISTINCT,
// LIMIT composed with ORDER BY, and window-less statements. orderedOnly
// marks queries whose row order is fully determined by a total ORDER BY.
var conformanceQueries = []struct {
	name    string
	sql     string
	ordered bool // a total ORDER BY pins the exact row order
}{
	{"q6-chain", `SELECT ws_item_sk, ws_order_number,
		rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS wf1,
		rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_bill_customer_sk) AS wf2 FROM web_sales`, false},
	{"where", `SELECT ws_item_sk, ws_order_number, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r
		FROM web_sales WHERE ws_quantity > 50`, false},
	{"orderby", `SELECT ws_item_sk, ws_order_number, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r
		FROM web_sales ORDER BY r, ws_item_sk, ws_order_number`, true},
	{"orderby-desc", `SELECT ws_item_sk, ws_order_number FROM web_sales ORDER BY ws_item_sk DESC, ws_order_number`, true},
	{"distinct", `SELECT DISTINCT ws_item_sk FROM web_sales ORDER BY ws_item_sk`, true},
	{"limit", `SELECT ws_item_sk, ws_order_number FROM web_sales ORDER BY ws_order_number, ws_item_sk LIMIT 17`, true},
	// The chain's own order covers the ORDER BY's first key on a single
	// engine (a partial sort, cut short by the LIMIT); a cluster sorts its
	// concatenation in full. Same rows either way.
	{"prefix-orderby-limit", `SELECT ws_item_sk, ws_order_number,
		rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk, ws_order_number) AS r
		FROM web_sales ORDER BY ws_item_sk, ws_order_number LIMIT 40`, true},
	{"distinct-orderby-limit", `SELECT DISTINCT ws_warehouse_sk,
		count(*) OVER (PARTITION BY ws_warehouse_sk) AS n
		FROM web_sales ORDER BY n DESC, ws_warehouse_sk LIMIT 5`, true},
	{"windowless", `SELECT empnum, salary FROM emptab ORDER BY empnum`, true},
	{"emptab-rank", `SELECT empnum, rank() OVER (ORDER BY salary DESC NULLS LAST) AS r FROM emptab ORDER BY r, empnum`, true},
	// Key-divergent chains: consecutive segments disagree on PARTITION BY,
	// so a cluster cannot scatter the whole chain — it re-shuffles rows
	// between nodes on the next segment's key (route "shuffle") and must
	// still serve single-engine values through every backend.
	{"divergent-2seg", divergentSQL, false},
	{"divergent-3seg", `SELECT ws_order_number,
		rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a,
		rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_date_sk) AS b,
		rank() OVER (PARTITION BY ws_bill_customer_sk ORDER BY ws_sold_date_sk) AS c FROM web_sales`, false},
	{"divergent-orderby", divergentSQL + ` ORDER BY ws_item_sk, ws_order_number`, true},
	{"divergent-where-limit", `SELECT ws_order_number, ws_warehouse_sk,
		rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a,
		rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_date_sk) AS b
		FROM web_sales WHERE ws_quantity <= 60 ORDER BY b DESC, ws_order_number LIMIT 23`, true},
	{"divergent-distinct", `SELECT DISTINCT ws_warehouse_sk,
		rank() OVER (PARTITION BY ws_item_sk, ws_warehouse_sk ORDER BY ws_sold_date_sk) AS a,
		rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_time_sk) AS b
		FROM web_sales ORDER BY ws_warehouse_sk, a, b`, true},
	// Keyless chains over a sharded table: one site must see every row.
	{"keyless", keylessSQL, false},
	{"keyed-then-keyless", keyedKeylessSQL, false},
	{"keyless-where-orderby-limit", keylessLimitSQL, true},
	{"keyless-distinct", keylessDistinctSQL, false},
}

// divergentSQL is the canonical two-segment key-divergent chain: wf a
// partitions on the shard key (item), wf b on warehouse, so the cluster
// backends re-shuffle between the segments.
const divergentSQL = `SELECT ws_item_sk, ws_warehouse_sk, ws_order_number,
	rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a,
	rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_date_sk) AS b FROM web_sales`

// A window function with an empty PARTITION BY is §3.5's "inherently
// sequential" case — no hash partitioning keeps its one window partition
// whole — so over a sharded table a cluster must bring every row to a
// single site. web_sales is sharded on ws_item_sk (emptab-rank, being
// replicated, never leaves its node): alone, behind a keyed step, under
// WHERE … ORDER BY … LIMIT, and under DISTINCT. keylessRoute is how the
// cluster backends run them; edgeQueries carries them through the buffered
// and the batch-drain suites too.
const (
	keylessRoute = "shuffle"

	keylessSQL = `SELECT ws_item_sk, ws_order_number,
	rank() OVER (ORDER BY ws_sold_date_sk, ws_order_number) AS r FROM web_sales`
	keyedKeylessSQL = `SELECT ws_item_sk, ws_order_number,
	rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a,
	rank() OVER (ORDER BY ws_sold_time_sk) AS b FROM web_sales`
	keylessLimitSQL = `SELECT ws_order_number, ws_quantity,
	rank() OVER (ORDER BY ws_sold_time_sk) AS r
	FROM web_sales WHERE ws_quantity <= 60 ORDER BY r DESC, ws_order_number LIMIT 23`
	keylessDistinctSQL = `SELECT DISTINCT ws_warehouse_sk,
	rank() OVER (ORDER BY ws_warehouse_sk) AS r FROM web_sales`
)

// fingerprint encodes each drained row; ordered keeps sequence, otherwise
// the multiset is canonicalized by sorting.
func fingerprint(rows [][]byte, ordered bool) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = string(r)
	}
	if !ordered {
		slices.Sort(out)
	}
	return out
}

func drain(t *testing.T, q windowdb.Queryer, src string) ([]string, [][]byte) {
	t.Helper()
	rows, err := q.QueryContext(context.Background(), src)
	if err != nil {
		t.Fatalf("QueryContext: %v", err)
	}
	defer rows.Close()
	var encoded [][]byte
	for rows.Next() {
		encoded = append(encoded, storage.AppendTuple(nil, rows.Row()))
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	return rows.Columns(), encoded
}

// TestQueryerValueIdentity: every backend's cursor yields exactly the
// reference Engine.Query result — identical columns, identical values;
// identical order whenever a total ORDER BY pins it.
func TestQueryerValueIdentity(t *testing.T) {
	ref := newEngine()
	for _, bk := range backends(t) {
		t.Run(bk.name, func(t *testing.T) {
			for _, cq := range conformanceQueries {
				want, err := ref.Query(cq.sql)
				if err != nil {
					t.Fatalf("%s: reference: %v", cq.name, err)
				}
				wantEnc := make([][]byte, want.Table.Len())
				for i, r := range want.Table.Rows {
					wantEnc[i] = storage.AppendTuple(nil, r)
				}
				cols, gotEnc := drain(t, bk.q, cq.sql)

				wantCols := make([]string, want.Table.Schema.Len())
				for i, c := range want.Table.Schema.Columns {
					wantCols[i] = c.Name
				}
				if !slices.Equal(cols, wantCols) {
					t.Fatalf("%s: columns %v, want %v", cq.name, cols, wantCols)
				}
				ordered := cq.ordered || bk.ordered
				got := fingerprint(gotEnc, ordered)
				exp := fingerprint(wantEnc, ordered)
				if !slices.Equal(got, exp) {
					t.Fatalf("%s: result differs from Engine.Query (%d vs %d rows, ordered=%v)",
						cq.name, len(got), len(exp), ordered)
				}
			}
		})
	}
}

// TestGeneratedStatements: generated statements over genTables, through
// every backend, each result held to the oracle's.
func TestGeneratedStatements(t *testing.T) {
	bks := backends(t)
	hit := gen.Hits{}
	for seed := range gen.Seeds(100) {
		rng := rand.New(rand.NewSource(int64(seed)))
		i := rng.Intn(len(genTables))
		s := gen.NewStatement(rng, fmt.Sprintf("gen%d", i), genTables[i].Len())
		projected, err := s.Project(genTables[i])
		if err != nil {
			t.Fatal(err)
		}
		hit.Windows(s)
		for _, bk := range bks {
			rows, err := bk.q.QueryContext(context.Background(), s.SQL())
			if err != nil {
				t.Fatalf("%s, seed %d: %v\n%s", bk.name, seed, err, s.SQL())
			}
			var got []storage.Tuple
			for rows.Next() {
				got = append(got, rows.Row())
			}
			if err := errors.Join(rows.Err(), s.Check(got, projected)); err != nil {
				t.Fatalf("%s, seed %d: %v\n%s", bk.name, seed, err, s.SQL())
			}
		}
	}
	hit.Require(t)
}

// TestQueryerErrorTaxonomy: parse, bind and unknown-table failures carry
// the same sentinels through every backend, local or remote.
func TestQueryerErrorTaxonomy(t *testing.T) {
	cases := []struct {
		name string
		sql  string
		want error
	}{
		{"parse", `SELEKT 1`, sql.ErrParse},
		{"bind", `SELECT nosuch FROM emptab`, sql.ErrBind},
		{"unknown-table", `SELECT * FROM nosuch`, catalog.ErrUnknownTable},
	}
	for _, bk := range backends(t) {
		t.Run(bk.name, func(t *testing.T) {
			for _, c := range cases {
				_, err := bk.q.QueryContext(context.Background(), c.sql)
				if !errors.Is(err, c.want) {
					t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
				}
			}
		})
	}
}

// TestQueryerPreparedStatements: PrepareContext round-trips on every
// backend and executes repeatedly with identical results.
func TestQueryerPreparedStatements(t *testing.T) {
	const q = `SELECT empnum, rank() OVER (ORDER BY salary DESC NULLS LAST) AS r FROM emptab ORDER BY r, empnum`
	for _, bk := range backends(t) {
		t.Run(bk.name, func(t *testing.T) {
			st, err := bk.q.PrepareContext(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			var first []string
			for run := 0; run < 2; run++ {
				rows, err := st.QueryContext(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				var enc [][]byte
				for rows.Next() {
					enc = append(enc, storage.AppendTuple(nil, rows.Row()))
				}
				if err := rows.Err(); err != nil {
					t.Fatal(err)
				}
				got := fingerprint(enc, true)
				if run == 0 {
					first = got
					if len(first) == 0 {
						t.Fatal("no rows")
					}
				} else if !slices.Equal(first, got) {
					t.Fatal("prepared statement runs differ")
				}
			}
		})
	}
}

// TestQueryerCancelledContext: an already-cancelled context fails
// promptly on every backend with context.Canceled.
func TestQueryerCancelledContext(t *testing.T) {
	const q = `SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales`
	for _, bk := range backends(t) {
		t.Run(bk.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			rows, err := bk.q.QueryContext(ctx, q)
			if err == nil {
				// Remote backends may only notice at first read.
				for rows.Next() {
				}
				err = rows.Err()
				rows.Close()
			}
			if err == nil {
				t.Fatal("cancelled context served a full result")
			}
			if !errors.Is(err, context.Canceled) && !strings.Contains(err.Error(), "context canceled") {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}

// TestKeyDivergentChains: the key-divergent contract dimensions in one
// place — cluster backends route the canonical two-segment chain as
// "shuffle" while staying value-identical (TestQueryerValueIdentity
// already pins values and exact ORDER BY order across every divergent
// query), and a half-drained divergent stream survives both an early
// Close and a mid-stream context cancel on every backend, leaving it
// serving.
func TestKeyDivergentChains(t *testing.T) {
	for _, bk := range backends(t) {
		t.Run(bk.name, func(t *testing.T) {
			// Routing: what the shard key does not cover, cluster-shaped
			// backends shuffle — there is no other route for it.
			rows, err := bk.q.QueryContext(context.Background(), divergentSQL)
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
			if n != dataRows {
				t.Fatalf("drained %d rows, want %d", n, dataRows)
			}
			m := rows.Metrics()
			if m == nil {
				t.Fatal("no metrics after drain")
			}
			isCluster := bk.name == "cluster" || bk.name == "client-coordinator"
			if isCluster && m.Route != "shuffle" {
				t.Fatalf("route = %q, want shuffle", m.Route)
			}

			// Early Close on a half-drained stream.
			rows, err = bk.q.QueryContext(context.Background(), divergentSQL)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 7; i++ {
				if !rows.Next() {
					t.Fatalf("stream ended early: %v", rows.Err())
				}
			}
			if err := rows.Close(); err != nil {
				t.Fatal(err)
			}

			// Mid-stream context cancel.
			ctx, cancel := context.WithCancel(context.Background())
			rows, err = bk.q.QueryContext(ctx, divergentSQL)
			if err != nil {
				cancel()
				t.Fatal(err)
			}
			for i := 0; i < 7; i++ {
				if !rows.Next() {
					t.Fatalf("stream ended early: %v", rows.Err())
				}
			}
			cancel()
			for rows.Next() {
			}
			rows.Close()

			// The backend still serves the same statement completely.
			_, enc := drain(t, bk.q, divergentSQL)
			if len(enc) != dataRows {
				t.Fatalf("post-cancel drain: %d rows, want %d", len(enc), dataRows)
			}
		})
	}
}

// TestQueryerMetricsAfterDrain: every backend reports post-drain metrics
// with the row count and (where it has one) the routing decision.
func TestQueryerMetricsAfterDrain(t *testing.T) {
	for _, bk := range backends(t) {
		t.Run(bk.name, func(t *testing.T) {
			for _, q := range []struct{ name, sql, route string }{
				{"covered", conformanceQueries[0].sql, "scatter"},
				{"keyless", keylessSQL, keylessRoute},
			} {
				rows, err := bk.q.QueryContext(context.Background(), q.sql)
				if err != nil {
					t.Fatalf("%s: %v", q.name, err)
				}
				if m := rows.Metrics(); m != nil {
					t.Fatalf("%s: metrics non-nil before drain", q.name)
				}
				var n int64
				for rows.Next() {
					n++
				}
				if err := rows.Err(); err != nil {
					t.Fatalf("%s: %v", q.name, err)
				}
				m := rows.Metrics()
				if m == nil {
					t.Fatalf("%s: metrics nil after drain", q.name)
				}
				if m.Rows != n {
					t.Fatalf("%s: metrics rows %d, drained %d", q.name, m.Rows, n)
				}
				if m.Chain == "" {
					t.Fatalf("%s: chain missing from metrics", q.name)
				}
				isCluster := strings.HasPrefix(bk.name, "cluster") || bk.name == "client-coordinator"
				if isCluster && m.Route != q.route {
					t.Fatalf("%s: route = %q, want %s", q.name, m.Route, q.route)
				}
			}
		})
	}
}

// TestTracePropagationNeutral: carrying a trace ID in the context — which
// every backend forwards over its wire hops and records spans under —
// must not change a single result value, the row order guarantees, or the
// error taxonomy. Observability is read-only.
func TestTracePropagationNeutral(t *testing.T) {
	for _, bk := range backends(t) {
		t.Run(bk.name, func(t *testing.T) {
			for _, cq := range []string{divergentSQL, conformanceQueries[0].sql} {
				_, plain := drain(t, bk.q, cq)
				tracedCtx := trace.NewContext(context.Background(), trace.NewID())
				rows, err := bk.q.QueryContext(tracedCtx, cq)
				if err != nil {
					t.Fatal(err)
				}
				var traced [][]byte
				for rows.Next() {
					traced = append(traced, storage.AppendTuple(nil, rows.Row()))
				}
				if err := rows.Err(); err != nil {
					t.Fatal(err)
				}
				rows.Close()
				got := fingerprint(traced, bk.ordered)
				want := fingerprint(plain, bk.ordered)
				if !slices.Equal(got, want) {
					t.Fatalf("traced run changed the result (%d vs %d rows)", len(got), len(want))
				}
			}

			// Error taxonomy is unchanged under a traced context.
			tracedCtx := trace.NewContext(context.Background(), trace.NewID())
			if _, err := bk.q.QueryContext(tracedCtx, `SELEKT 1`); !errors.Is(err, sql.ErrParse) {
				t.Fatalf("traced parse error = %v, want ErrParse", err)
			}
			if _, err := bk.q.QueryContext(tracedCtx, `SELECT * FROM nosuch`); !errors.Is(err, catalog.ErrUnknownTable) {
				t.Fatalf("traced unknown-table error = %v, want ErrUnknownTable", err)
			}
		})
	}
}
