package service

import (
	"context"
	"testing"

	"repro"
	"repro/internal/datagen"
)

// BenchmarkService — the serving hot path: one query of the load-harness
// mix through the full service stack (plan cache, admission, execution).
// After the warmup query every plan comes from the cache, so cache=hit
// measures the execute-many side of plan-once/execute-many; the
// cache=miss variant re-registers the table each iteration to price the
// full parse+bind+plan path on top.
func BenchmarkService(b *testing.B) {
	const q = `SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales`
	table := datagen.WebSales(datagen.WebSalesConfig{Rows: 10_000, Seed: 1})
	newService := func() *Service {
		eng := windowdb.New(windowdb.Config{SortMemBytes: 8 << 20, Parallelism: 1})
		eng.Register("web_sales", table)
		return New(eng, Config{})
	}
	b.Run("cache=hit", func(b *testing.B) {
		svc := newService()
		ctx := context.Background()
		if _, err := windowdb.Collect(ctx, svc, q); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := windowdb.Collect(ctx, svc, q); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if hits := svc.Stats().Cache.Hits; hits < uint64(b.N) {
			b.Fatalf("expected every timed query to hit the plan cache, got %d hits for %d queries", hits, b.N)
		}
	})
	b.Run("cache=miss", func(b *testing.B) {
		svc := newService()
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			svc.Engine().Register("web_sales", table) // bump the generation
			if _, err := windowdb.Collect(ctx, svc, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}
