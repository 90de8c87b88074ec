package conformance

import (
	"context"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	windowdb "repro"
	"repro/internal/datagen"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/storage"
)

// TestPlanCacheValidityPerTable pins the plan cache's one validity rule on
// every backend, the bare engine included — a cached plan stays while the
// catalog entry it was planned on is the catalog's entry for its table. So
// a stale plan is never served. Re-registering another table keeps it: the
// next statement still hits. Re-registering its own table drops it: the
// next statement misses and reads the new rows. Appending rows keeps it (an
// append keeps the entry and its schema), and the next statement hits and
// reads the appended rows. EXPLAIN ANALYZE then says "plan cache: hit".
func TestPlanCacheValidityPerTable(t *testing.T) {
	ctx := context.Background()
	const wsSQL = `SELECT ws_item_sk, ws_order_number, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r FROM web_sales`
	_, emp := dataset()
	fresh := datagen.WebSales(datagen.WebSalesConfig{Rows: dataRows / 2, Seed: 12})
	freshEng := windowdb.New(engCfg())
	freshEng.Register("web_sales", fresh)
	want := refFingerprint(t, freshEng, wsSQL)
	batch := appendBatch(40)
	if _, _, err := freshEng.Append("web_sales", batch); err != nil {
		t.Fatal(err)
	}
	wantAppended := refFingerprint(t, freshEng, wsSQL)

	eng := newEngine()
	svc := service.New(newEngine(), service.Config{Slots: 2})
	front := service.New(newEngine(), service.Config{Slots: 2})
	srv := httptest.NewServer(front.Handler())
	t.Cleanup(srv.Close)
	client := service.NewClientCodec(srv.URL, srv.Client(), service.CodecBinary)

	registerOn := func(c *shard.Cluster) func(string, *storage.Table) {
		return func(name string, tab *storage.Table) {
			err := c.RegisterReplicated(ctx, name, tab)
			if name == "web_sales" {
				err = c.RegisterSharded(ctx, name, tab, "ws_item_sk")
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	cluster := newPlanCacheCluster(t, 2)
	behind := newPlanCacheCluster(t, 2)
	coordSrv := httptest.NewServer(behind.Handler())
	t.Cleanup(coordSrv.Close)
	coordClient := service.NewClientCodec(coordSrv.URL, coordSrv.Client(), service.CodecBinary)

	for _, bk := range []struct {
		name     string
		q        windowdb.Queryer
		register func(string, *storage.Table)
		append   func([]storage.Tuple) error
	}{
		{"engine", eng, eng.Register, func(rows []storage.Tuple) error {
			_, _, err := eng.Append("web_sales", rows)
			return err
		}},
		{"service", svc, svc.Engine().Register, func(rows []storage.Tuple) error {
			_, err := svc.Append(ctx, "web_sales", rows, 0)
			return err
		}},
		{"client", client, front.Engine().Register, func(rows []storage.Tuple) error {
			_, err := client.Append(ctx, "web_sales", rows)
			return err
		}},
		{"cluster", cluster, registerOn(cluster), func(rows []storage.Tuple) error {
			_, err := cluster.Append(ctx, "web_sales", rows, 0)
			return err
		}},
		{"client-coordinator", coordClient, registerOn(behind), func(rows []storage.Tuple) error {
			_, err := coordClient.Append(ctx, "web_sales", rows)
			return err
		}},
	} {
		t.Run(bk.name, func(t *testing.T) {
			run := func() (hit bool, rows []string) {
				t.Helper()
				cur, err := bk.q.QueryContext(ctx, wsSQL)
				if err != nil {
					t.Fatal(err)
				}
				defer cur.Close()
				var enc [][]byte
				for cur.Next() {
					enc = append(enc, storage.AppendTuple(nil, cur.Row()))
				}
				if err := cur.Err(); err != nil {
					t.Fatal(err)
				}
				m := cur.Metrics()
				if m == nil {
					t.Fatal("no metrics after a full drain")
				}
				return m.CacheHit, fingerprint(enc, false)
			}
			run()
			bk.register("emptab", emp)
			if hit, _ := run(); !hit {
				t.Fatal("re-registering emptab dropped the web_sales plan")
			}
			bk.register("web_sales", fresh)
			hit, got := run()
			if hit {
				t.Fatal("re-registering web_sales kept its stale plan")
			}
			if !slices.Equal(got, want) {
				t.Fatalf("after re-registering web_sales: %d rows that are not the new table's %d", len(got), len(want))
			}
			if err := bk.append(batch); err != nil {
				t.Fatal(err)
			}
			hit, got = run()
			if !hit {
				t.Fatal("an append dropped the web_sales plan")
			}
			if !slices.Equal(got, wantAppended) {
				t.Fatalf("after appending to web_sales: %d rows that are not the appended table's %d", len(got), len(wantAppended))
			}
			// EXPLAIN ANALYZE shows the disposition on every backend.
			res, err := windowdb.Collect(ctx, bk.q, "EXPLAIN ANALYZE "+wsSQL)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.ContainsFunc(res.Table.Rows, func(r storage.Tuple) bool { return r[0].Str() == "plan cache: hit" }) {
				t.Fatalf("EXPLAIN ANALYZE of a cached statement has no %q line:\n%v", "plan cache: hit", res.Table.Rows)
			}
		})
	}
}

// TestColdStatementPlansOnce: N callers issuing one text at once against a
// cold backend plan it once — one miss in the plan cache of the engine that
// resolves it, every other lookup a hit or an attach — and all get its
// rows. The cluster's nodes have fewer slots than there are callers: a
// statement is admitted on all its nodes or on none, so no two wait on
// each other's slots, and once every statement ended nothing is held.
func TestColdStatementPlansOnce(t *testing.T) {
	const callers = 8
	ctx := context.Background()
	const src = `SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r FROM web_sales`
	want := refFingerprint(t, newEngine(), src)

	eng := newEngine()
	svc := service.New(newEngine(), service.Config{Slots: 2})
	front := service.New(newEngine(), service.Config{Slots: 2})
	srv := httptest.NewServer(front.Handler())
	t.Cleanup(srv.Close)
	client := service.NewClientCodec(srv.URL, srv.Client(), service.CodecBinary)
	cluster := newPlanCacheCluster(t, 2)

	for _, bk := range []struct {
		name     string
		q        windowdb.Queryer
		resolves *windowdb.Engine // whose plan cache the statement goes through
	}{
		{"engine", eng, eng},
		{"service", svc, svc.Engine()},
		{"client", client, front.Engine()},
		{"cluster", cluster, cluster.Coordinator()},
	} {
		t.Run(bk.name, func(t *testing.T) {
			before := bk.resolves.PlanCacheStats()
			var wg sync.WaitGroup
			got := make([][]string, callers)
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := windowdb.Collect(ctx, bk.q, src)
					if err != nil {
						t.Error(err)
						return
					}
					enc := make([][]byte, res.Table.Len())
					for j, r := range res.Table.Rows {
						enc[j] = storage.AppendTuple(nil, r)
					}
					got[i] = fingerprint(enc, false)
				}()
			}
			wg.Wait()
			for i := range got {
				if !slices.Equal(got[i], want) {
					t.Fatalf("caller %d: %d rows that are not the statement's %d", i, len(got[i]), len(want))
				}
			}
			if bk.q == cluster {
				st, err := cluster.Stats(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if held := st.Held(); held != "" {
					t.Fatalf("every statement ended, and the cluster still holds %s", held)
				}
			}
			after := bk.resolves.PlanCacheStats()
			misses, shared := after.Misses-before.Misses, after.Hits+after.Attaches-before.Hits-before.Attaches
			if misses != 1 || shared != callers-1 {
				t.Fatalf("%d callers: %d misses and %d hits or attaches, want 1 and %d", callers, misses, shared, callers-1)
			}
		})
	}
}

// newPlanCacheCluster is a coordinator over two local nodes of slots
// execution slots each, with web_sales sharded on ws_item_sk and emptab
// replicated.
func newPlanCacheCluster(t *testing.T, slots int) *shard.Cluster {
	t.Helper()
	ctx := context.Background()
	ws, emp := dataset()
	shards := make([]shard.Transport, 2)
	for i := range shards {
		shards[i] = shard.NewLocal(service.New(windowdb.New(engCfg()), service.Config{Slots: slots}))
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
