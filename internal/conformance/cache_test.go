package conformance

import (
	"context"
	"net/http/httptest"
	"slices"
	"testing"

	windowdb "repro"
	"repro/internal/datagen"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/storage"
)

// TestPlanCacheValidityPerTable pins the plan caches' one validity rule on
// every backend that has one — a cached plan stays while the catalog entry
// it was planned on is the catalog's entry for its table. Re-registering
// another table keeps it: the next statement still hits. Re-registering its
// own table drops it: the next statement misses and reads the new rows.
func TestPlanCacheValidityPerTable(t *testing.T) {
	ctx := context.Background()
	const wsSQL = `SELECT ws_item_sk, ws_order_number, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r FROM web_sales`
	ws, emp := dataset()
	fresh := datagen.WebSales(datagen.WebSalesConfig{Rows: dataRows / 2, Seed: 12})
	freshEng := windowdb.New(engCfg())
	freshEng.Register("web_sales", fresh)
	want := refFingerprint(t, freshEng, wsSQL)

	svc := service.New(newEngine(), service.Config{Slots: 2})
	front := service.New(newEngine(), service.Config{Slots: 2})
	srv := httptest.NewServer(front.Handler())
	t.Cleanup(srv.Close)
	client := service.NewClientCodec(srv.URL, srv.Client(), service.CodecBinary)

	newCluster := func() *shard.Cluster {
		shards := make([]shard.Transport, 2)
		for i := range shards {
			shards[i] = shard.NewLocal(service.New(windowdb.New(engCfg()), service.Config{Slots: 2}))
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
	cluster := newCluster()
	behind := newCluster()
	coordSrv := httptest.NewServer(behind.Handler())
	t.Cleanup(coordSrv.Close)
	coordClient := service.NewClientCodec(coordSrv.URL, coordSrv.Client(), service.CodecBinary)

	for _, bk := range []struct {
		name     string
		q        windowdb.Queryer
		register func(string, *storage.Table)
	}{
		{"service", svc, svc.Engine().Register},
		{"client", client, front.Engine().Register},
		{"cluster", cluster, registerOn(cluster)},
		{"client-coordinator", coordClient, registerOn(behind)},
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
		})
	}
}
