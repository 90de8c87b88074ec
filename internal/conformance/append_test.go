// The incremental-maintenance contract: every backend that can ingest —
// in-process Engine, service.Service, the remote service.Client against a
// windserve and against a cluster coordinator, and shard.Cluster itself —
// must serve append-then-query results identical to a fresh engine over
// the concatenated data, keep its prepared plans across appends, and
// serve SUBSCRIBE cursors whose init+delta stream reconstructs exactly
// the post-append result.
package conformance

import (
	"context"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	windowdb "repro"
	"repro/internal/datagen"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/storage"
)

// subChainSQL is the maintained statement of the suite: shard-local (its
// partition key is the cluster shard key), no ORDER BY/DISTINCT/LIMIT.
const subChainSQL = `SELECT ws_item_sk, ws_order_number, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r FROM web_sales`

// appendBackend is one ingestion-capable Queryer under test.
type appendBackend struct {
	name string
	q    windowdb.Queryer
	// append applies one batch to a table, returning the watermark.
	append func(ctx context.Context, table string, rows []storage.Tuple) (uint64, error)
}

// appendBackends builds every ingestion path over the same dataset: the
// engine's Append, the service's metered Append, the client's POST
// /append against a single-engine server and against a cluster
// coordinator, and the cluster's routed Append over local transports.
func appendBackends(t *testing.T) []appendBackend {
	t.Helper()
	ctx := context.Background()

	eng := newEngine()
	svc := service.New(newEngine(), service.Config{Slots: 2})

	srv := httptest.NewServer(service.New(newEngine(), service.Config{Slots: 2}).Handler())
	t.Cleanup(srv.Close)
	client := service.NewClientCodec(srv.URL, srv.Client(), service.CodecBinary)

	newCluster := func(transport func() shard.Transport) *shard.Cluster {
		ws, emp := dataset()
		shards := make([]shard.Transport, 2)
		for i := range shards {
			shards[i] = transport()
		}
		c, err := shard.New(shard.Config{Engine: engCfg()}, shards)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RegisterSharded(ctx, "web_sales", ws, "ws_item_sk"); err != nil {
			t.Fatal(err)
		}
		if err := c.RegisterReplicated(ctx, "emptab", emp); err != nil {
			t.Fatal(err)
		}
		return c
	}
	localTransport := func() shard.Transport {
		return shard.NewLocal(service.New(windowdb.New(engCfg()), service.Config{Slots: 2}))
	}
	httpTransport := func() shard.Transport {
		nodeSrv := httptest.NewServer(service.New(windowdb.New(engCfg()), service.Config{Slots: 2, ShardRoutes: true}).Handler())
		t.Cleanup(nodeSrv.Close)
		return shard.NewHTTP(nodeSrv.URL, nodeSrv.Client())
	}
	cluster := newCluster(localTransport)
	clusterHTTP := newCluster(httpTransport)

	coordSrv := httptest.NewServer(newCluster(localTransport).Handler())
	t.Cleanup(coordSrv.Close)
	coordClient := service.NewClientCodec(coordSrv.URL, coordSrv.Client(), service.CodecBinary)

	return []appendBackend{
		{"engine", eng, func(_ context.Context, table string, rows []storage.Tuple) (uint64, error) {
			_, wm, err := eng.Append(table, rows)
			return wm, err
		}},
		{"service", svc, func(ctx context.Context, table string, rows []storage.Tuple) (uint64, error) {
			resp, err := svc.Append(ctx, table, rows, 0)
			return resp.Watermark, err
		}},
		{"client-engine", client, func(ctx context.Context, table string, rows []storage.Tuple) (uint64, error) {
			resp, err := client.Append(ctx, table, rows)
			return resp.Watermark, err
		}},
		{"cluster", cluster, func(ctx context.Context, table string, rows []storage.Tuple) (uint64, error) {
			resp, err := cluster.Append(ctx, table, rows, 0)
			return resp.Watermark, err
		}},
		{"cluster-http-binary", clusterHTTP, func(ctx context.Context, table string, rows []storage.Tuple) (uint64, error) {
			resp, err := clusterHTTP.Append(ctx, table, rows, 0)
			return resp.Watermark, err
		}},
		{"client-coordinator", coordClient, func(ctx context.Context, table string, rows []storage.Tuple) (uint64, error) {
			resp, err := coordClient.Append(ctx, table, rows)
			return resp.Watermark, err
		}},
	}
}

// appendBatch is the deterministic batch every backend ingests: hot-keyed,
// so maintenance touches few partitions.
func appendBatch(n int) []storage.Tuple {
	return datagen.NewAppendStream(datagen.AppendStreamConfig{
		Base: datagen.WebSalesConfig{Rows: dataRows, Seed: 11},
		Seed: 5, HotItems: 3,
	}).Next(n)
}

// appendedEngine is the oracle: a fresh engine registered with the base
// dataset already concatenated with batch, as if the rows had always been
// there.
func appendedEngine(batch []storage.Tuple) *windowdb.Engine {
	ws, emp := dataset()
	ws.Rows = append(ws.Rows, batch...)
	eng := windowdb.New(engCfg())
	eng.Register("web_sales", ws)
	eng.Register("emptab", emp)
	return eng
}

// refFingerprint canonicalizes a reference Engine.Query result.
func refFingerprint(t *testing.T, eng *windowdb.Engine, src string) []string {
	t.Helper()
	res, err := eng.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	enc := make([][]byte, res.Table.Len())
	for i, r := range res.Table.Rows {
		enc[i] = storage.AppendTuple(nil, r)
	}
	return fingerprint(enc, false)
}

// TestAppendThenQueryIdentity: after every backend ingests the same batch,
// its query result is value-identical to a fresh engine over the
// concatenated data — and the second query still hits the plan cache
// backends that have one (appends bump only the data generation).
func TestAppendThenQueryIdentity(t *testing.T) {
	ctx := context.Background()
	chain := conformanceQueries[0].sql // the q6 two-rank chain
	batch := appendBatch(40)
	want := refFingerprint(t, appendedEngine(batch), chain)

	for _, bk := range appendBackends(t) {
		t.Run(bk.name, func(t *testing.T) {
			// Warm any plan cache before the append.
			drain(t, bk.q, chain)

			wm, err := bk.append(ctx, "web_sales", batch)
			if err != nil {
				t.Fatalf("append: %v", err)
			}
			if wm != 2 {
				t.Fatalf("watermark = %d, want 2 (first append on a fresh table)", wm)
			}
			_, enc := drain(t, bk.q, chain)
			if got := fingerprint(enc, false); !slices.Equal(got, want) {
				t.Fatalf("post-append result differs from concatenated oracle (%d vs %d rows)", len(got), len(want))
			}

			// The SQL ingestion surface: INSERT returns the one-row summary
			// and the rows are immediately visible.
			ir, err := bk.q.QueryContext(ctx, `INSERT INTO emptab VALUES (11, 20, 4000), (12, 20, NULL)`)
			if err != nil {
				t.Fatalf("INSERT: %v", err)
			}
			if !ir.Next() {
				t.Fatalf("INSERT summary empty: %v", ir.Err())
			}
			row := ir.Row()
			if row[0].Str() != "emptab" || row[1].Int64() != 2 {
				t.Fatalf("INSERT summary = %v", row)
			}
			ir.Close()
			_, emp := drain(t, bk.q, `SELECT empnum FROM emptab`)
			if len(emp) != 12 {
				t.Fatalf("post-INSERT emptab rows = %d, want 12", len(emp))
			}
		})
	}
}

// TestSubscribeDeltaParity: a SUBSCRIBE cursor's stream is a faithful
// incremental view on every backend — the init rows are the current
// result, and after an append the applied deltas (by _rid) reconstruct
// exactly what a fresh engine over the concatenated data computes.
func TestSubscribeDeltaParity(t *testing.T) {
	batch := appendBatch(30)
	baseWant := refFingerprint(t, newEngine(), subChainSQL)
	finalWant := refFingerprint(t, appendedEngine(batch), subChainSQL)

	for _, bk := range appendBackends(t) {
		t.Run(bk.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			rows, err := bk.q.QueryContext(ctx, "SUBSCRIBE "+subChainSQL)
			if err != nil {
				t.Fatalf("SUBSCRIBE: %v", err)
			}
			defer rows.Close()
			cols := rows.Columns()
			ridIdx, opIdx, wmIdx := len(cols)-3, len(cols)-2, len(cols)-1
			if cols[ridIdx] != "_rid" || cols[opIdx] != "_op" || cols[wmIdx] != "_watermark" {
				t.Fatalf("meta columns missing: %v", cols)
			}

			// state is the maintained view keyed by row identity.
			state := make(map[int64][]byte, dataRows)
			for i := 0; i < dataRows; i++ {
				if !rows.Next() {
					t.Fatalf("initial stream ended at %d: %v", i, rows.Err())
				}
				r := rows.Row()
				if op := r[opIdx].Str(); op != "init" {
					t.Fatalf("initial row op = %q", op)
				}
				state[r[ridIdx].Int64()] = storage.AppendTuple(nil, r[:ridIdx])
			}
			if got := stateFingerprint(state); !slices.Equal(got, baseWant) {
				t.Fatalf("init rows differ from the current result (%d vs %d rows)", len(got), len(baseWant))
			}

			wm, err := bk.append(ctx, "web_sales", batch)
			if err != nil {
				t.Fatalf("append: %v", err)
			}
			// Apply deltas until the maintained view reaches the oracle; the
			// context deadline turns a wedged stream into a failure.
			for !slices.Equal(stateFingerprint(state), finalWant) {
				if !rows.Next() {
					t.Fatalf("stream ended before parity: %v", rows.Err())
				}
				r := rows.Row()
				op := r[opIdx].Str()
				if op != "append" && op != "upsert" {
					t.Fatalf("delta op = %q", op)
				}
				if got := uint64(r[wmIdx].Int64()); got != wm {
					t.Fatalf("delta watermark = %d, append watermark = %d", got, wm)
				}
				state[r[ridIdx].Int64()] = storage.AppendTuple(nil, r[:ridIdx])
			}
		})
	}
}

func stateFingerprint(state map[int64][]byte) []string {
	out := make([]string, 0, len(state))
	for _, enc := range state {
		out = append(out, string(enc))
	}
	slices.Sort(out)
	return out
}

// TestIncrementalScanFraction is the paper-scale acceptance bar: on a
// 120k-row table, maintaining the q6 two-rank chain through a 1k-row
// hot-keyed append scans under 10% of what a from-scratch recompute
// visits, while the post-append result stays value-identical to a fresh
// engine over the concatenated data.
func TestIncrementalScanFraction(t *testing.T) {
	if testing.Short() {
		t.Skip("120k-row maintenance experiment")
	}
	const baseRows, extra = 120000, 1000
	chain := conformanceQueries[0].sql
	cfg := datagen.WebSalesConfig{Rows: baseRows, Seed: 3}
	eng := windowdb.New(windowdb.Config{SortMemBytes: 8 << 20, Parallelism: 2})
	eng.Register("web_sales", datagen.WebSales(cfg))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rows, err := eng.QueryContext(ctx, "SUBSCRIBE "+chain)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < baseRows; i++ {
		if !rows.Next() {
			t.Fatalf("initial stream ended at %d: %v", i, rows.Err())
		}
	}
	batch := datagen.NewAppendStream(datagen.AppendStreamConfig{Base: cfg, Seed: 12, HotItems: 16}).Next(extra)
	if _, _, err := eng.Append("web_sales", batch); err != nil {
		t.Fatal(err)
	}
	// One delta row proves the batch was applied; the scan accounting for
	// the whole batch is in the metrics after Close.
	if !rows.Next() {
		t.Fatalf("no delta after append: %v", rows.Err())
	}
	rows.Close()
	m := rows.Metrics()
	if m == nil || m.Exec == nil {
		t.Fatal("no maintenance metrics after close")
	}
	var scanned int64
	for _, st := range m.Exec.Steps {
		scanned += st.Rows
	}
	full := m.EstRows
	if scanned <= 0 || full <= 0 {
		t.Fatalf("scan accounting empty: scanned=%d full=%d", scanned, full)
	}
	if scanned*10 >= full {
		t.Fatalf("maintenance scanned %d rows; full recompute visits %d (%.1f%%, want <10%%)",
			scanned, full, 100*float64(scanned)/float64(full))
	}
	t.Logf("maintenance scanned %d of %d rows (%.2f%%)", scanned, full, 100*float64(scanned)/float64(full))

	// Value identity at scale.
	got, err := eng.Query(chain)
	if err != nil {
		t.Fatal(err)
	}
	ws := datagen.WebSales(cfg)
	ws.Rows = append(ws.Rows, batch...)
	ref := windowdb.New(windowdb.Config{SortMemBytes: 8 << 20, Parallelism: 2})
	ref.Register("web_sales", ws)
	want, err := ref.Query(chain)
	if err != nil {
		t.Fatal(err)
	}
	gotEnc := make([][]byte, got.Table.Len())
	for i, r := range got.Table.Rows {
		gotEnc[i] = storage.AppendTuple(nil, r)
	}
	wantEnc := make([][]byte, want.Table.Len())
	for i, r := range want.Table.Rows {
		wantEnc[i] = storage.AppendTuple(nil, r)
	}
	if !slices.Equal(fingerprint(gotEnc, false), fingerprint(wantEnc, false)) {
		t.Fatal("post-append 120k result differs from concatenated oracle")
	}
}
