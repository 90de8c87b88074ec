package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/datagen"
)

const mixQ1 = `SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales`

func newTestService(t testing.TB, cfg Config, rows int) *Service {
	t.Helper()
	return newCachingService(t, cfg, rows, 0)
}

// newCachingService is newTestService over an engine whose plan cache
// holds planCache entries (0: the default).
func newCachingService(t testing.TB, cfg Config, rows, planCache int) *Service {
	t.Helper()
	eng := windowdb.New(windowdb.Config{SortMemBytes: 4 << 20, Parallelism: 1, PlanCacheEntries: planCache})
	eng.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: rows, Seed: 1}))
	eng.Register("emptab", datagen.Emptab())
	return New(eng, cfg)
}

// TestAdmissionBoundsInFlight is the acceptance check for the governor:
// with 2 execution slots and 8 closed-loop clients, the in-flight gauge's
// high-water mark never exceeds the slot count, while every query still
// completes (the excess queued rather than failing).
func TestAdmissionBoundsInFlight(t *testing.T) {
	const slots = 2
	svc := newTestService(t, Config{Slots: slots, MaxQueue: 64}, 4000)
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				if _, err := windowdb.Collect(ctx, svc, mixQ1); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	stats := svc.Stats()
	if stats.MaxInFlight > slots {
		t.Fatalf("max in-flight %d exceeds %d slots", stats.MaxInFlight, slots)
	}
	if stats.Queries != 24 {
		t.Fatalf("completed %d queries, want 24", stats.Queries)
	}
	if stats.Failures != 0 || stats.Rejected != 0 {
		t.Fatalf("unexpected failures=%d rejected=%d", stats.Failures, stats.Rejected)
	}
}

// TestGovernorQueueOverflow pins the admission state machine: with 1 slot
// and a 1-deep queue, the slot holder plus one waiter are admitted and the
// next query is rejected with ErrOverloaded; releasing the slot admits the
// waiter.
func TestGovernorQueueOverflow(t *testing.T) {
	g := NewGovernor(1, 1)
	ctx := context.Background()
	if queued, err := g.Acquire(ctx); err != nil || queued {
		t.Fatalf("first acquire: queued=%v err=%v", queued, err)
	}

	waiterIn := make(chan error, 1)
	go func() {
		_, err := g.Acquire(ctx)
		waiterIn <- err
	}()
	// The overflow below is only an overflow once the waiter holds the
	// queue's one place: yield until it does.
	for g.QueueDepth() != 1 {
		runtime.Gosched()
	}

	if _, err := g.Acquire(ctx); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow acquire: err=%v, want ErrOverloaded", err)
	}

	g.Release()
	if err := <-waiterIn; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	g.Release()
}

// TestGovernorCancelWhileQueued: a queued query honors its deadline.
func TestGovernorCancelWhileQueued(t *testing.T) {
	g := NewGovernor(1, 8)
	if _, err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	queued, err := g.Acquire(ctx)
	if !queued || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued=%v err=%v, want queued deadline-exceeded", queued, err)
	}
	g.Release()
}

// TestServiceOverloaded: with every slot held and no queue, Query fails
// fast with the typed error and the rejection is counted.
func TestServiceOverloaded(t *testing.T) {
	svc := newTestService(t, Config{Slots: 1, MaxQueue: -1}, 200)
	svc.gov.slots <- struct{}{} // occupy the only slot
	_, err := windowdb.Collect(context.Background(), svc, mixQ1)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err=%v, want ErrOverloaded", err)
	}
	stats := svc.Stats()
	if stats.Rejected != 1 || stats.Failures != 1 {
		t.Fatalf("rejected=%d failures=%d, want 1/1", stats.Rejected, stats.Failures)
	}
	<-svc.gov.slots
	if _, err := windowdb.Collect(context.Background(), svc, mixQ1); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

// TestPlanCacheHitMissInvalidation: the second textual variant of a query
// hits; re-registering a table invalidates and re-prepares.
func TestPlanCacheHitMissInvalidation(t *testing.T) {
	svc := newTestService(t, Config{}, 500)
	ctx := context.Background()
	if _, err := windowdb.Collect(ctx, svc, mixQ1); err != nil {
		t.Fatal(err)
	}
	// A whitespace variant of the same statement must share the slot.
	variant := "SELECT   ws_item_sk,\trank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r\n FROM web_sales"
	res, err := windowdb.Collect(ctx, svc, variant)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("normalized variant missed the plan cache")
	}
	if c := svc.Stats().Cache; c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", c.Hits, c.Misses)
	}

	// Re-registering any table bumps the generation: the cached plan is
	// stale, the lookup counts an invalidation and the query re-prepares.
	svc.Engine().Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 300, Seed: 2}))
	res, err = windowdb.Collect(ctx, svc, mixQ1)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("stale plan served after re-registration")
	}
	if res.Table.Len() != 300 {
		t.Fatalf("stale execution: got %d rows, want the re-registered table's 300", res.Table.Len())
	}
	if c := svc.Stats().Cache; c.Invalidations != 1 {
		t.Fatalf("invalidations=%d, want 1", c.Invalidations)
	}
}

// TestPlanCacheLRU: the least recently used statement is evicted past
// capacity.
func TestPlanCacheLRU(t *testing.T) {
	svc := newCachingService(t, Config{}, 200, 2)
	ctx := context.Background()
	queries := []string{
		`SELECT ws_item_sk FROM web_sales LIMIT 1`,
		`SELECT ws_quantity FROM web_sales LIMIT 1`,
		`SELECT ws_warehouse_sk FROM web_sales LIMIT 1`,
	}
	for _, q := range queries {
		if _, err := windowdb.Collect(ctx, svc, q); err != nil {
			t.Fatal(err)
		}
	}
	c := svc.Stats().Cache
	if c.Size != 2 || c.Evictions != 1 {
		t.Fatalf("size=%d evictions=%d, want 2/1", c.Size, c.Evictions)
	}
	// The first statement was evicted; the last two still hit.
	res, err := windowdb.Collect(ctx, svc, queries[2])
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("most recent statement evicted")
	}
	res, err = windowdb.Collect(ctx, svc, queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("evicted statement reported as hit")
	}
}

// TestQueryDeadline: a query whose deadline expires mid-chain surfaces
// context.DeadlineExceeded (the executor checks at step boundaries).
func TestQueryDeadline(t *testing.T) {
	svc := newTestService(t, Config{}, 20_000)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, err := windowdb.Collect(ctx, svc, mixQ1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v, want DeadlineExceeded", err)
	}
}

// TestStatsSnapshot: the counters a dashboard depends on move.
func TestStatsSnapshot(t *testing.T) {
	svc := newTestService(t, Config{Slots: 3}, 500)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := windowdb.Collect(ctx, svc, mixQ1); err != nil {
			t.Fatal(err)
		}
	}
	s := svc.Stats()
	if s.Queries != 5 {
		t.Errorf("queries=%d, want 5", s.Queries)
	}
	if s.QPS <= 0 {
		t.Errorf("qps=%v, want > 0", s.QPS)
	}
	if s.Slots != 3 || s.InFlight != 0 {
		t.Errorf("slots=%d inflight=%d, want 3/0", s.Slots, s.InFlight)
	}
	if s.P50Millis <= 0 || s.P95Millis < s.P50Millis || s.P99Millis < s.P95Millis {
		t.Errorf("implausible percentiles %v/%v/%v", s.P50Millis, s.P95Millis, s.P99Millis)
	}
	if s.Cache.Hits != 4 || s.Cache.Misses != 1 {
		t.Errorf("cache hits=%d misses=%d, want 4/1", s.Cache.Hits, s.Cache.Misses)
	}
	if s.RowsOut != 5*500 {
		t.Errorf("rows_out=%d, want %d", s.RowsOut, 5*500)
	}
}

// TestHistogramQuantiles pins the bucketed quantile read: upper bounds
// bracket the true values within one growth factor.
func TestHistogramQuantiles(t *testing.T) {
	var h latencyHist
	for i := 1; i <= 1000; i++ {
		h.observe(time.Duration(i) * time.Millisecond)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.50, 500 * time.Millisecond}, {0.95, 950 * time.Millisecond}, {0.99, 990 * time.Millisecond}} {
		got := h.quantile(c.q)
		if got < c.want || got > time.Duration(float64(c.want)*histGrowth*histGrowth) {
			t.Errorf("q%.0f = %v, want within a bucket of %v", c.q*100, got, c.want)
		}
	}
}

// TestConcurrentMixedTraffic hammers one service from many goroutines with
// a mix of hits, misses and re-registrations; run under -race this is the
// service's thread-safety proof.
func TestConcurrentMixedTraffic(t *testing.T) {
	svc := newCachingService(t, Config{Slots: 4}, 500, 8)
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				q := fmt.Sprintf(`SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales LIMIT %d`, 1+(i+j)%4)
				if _, err := windowdb.Collect(ctx, svc, q); err != nil {
					t.Errorf("worker %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 5; j++ {
			svc.Engine().Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 500, Seed: int64(j + 2)}))
		}
	}()
	wg.Wait()
	s := svc.Stats()
	if s.Failures != 0 {
		t.Fatalf("failures=%d, want 0", s.Failures)
	}
	if s.MaxInFlight > 4 {
		t.Fatalf("max in-flight %d exceeds 4 slots", s.MaxInFlight)
	}
}

// TestPlanCacheSweepOnGenerationChange: the first lookup after a Register
// drops every stale entry — not just the looked-up key — so plans whose
// SQL never recurs cannot pin superseded table snapshots.
func TestPlanCacheSweepOnGenerationChange(t *testing.T) {
	svc := newTestService(t, Config{}, 300)
	ctx := context.Background()
	queries := []string{
		`SELECT ws_item_sk FROM web_sales LIMIT 1`,
		`SELECT ws_quantity FROM web_sales LIMIT 1`,
		`SELECT ws_warehouse_sk FROM web_sales LIMIT 1`,
	}
	for _, q := range queries {
		if _, err := windowdb.Collect(ctx, svc, q); err != nil {
			t.Fatal(err)
		}
	}
	if c := svc.Stats().Cache; c.Size != 3 {
		t.Fatalf("size=%d, want 3", c.Size)
	}
	svc.Engine().Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 100, Seed: 5}))
	// One lookup of a brand-new statement triggers the sweep of all three.
	if _, err := windowdb.Collect(ctx, svc, `SELECT ws_order_number FROM web_sales LIMIT 1`); err != nil {
		t.Fatal(err)
	}
	c := svc.Stats().Cache
	if c.Size != 1 || c.Invalidations != 3 {
		t.Fatalf("size=%d invalidations=%d after sweep, want 1/3", c.Size, c.Invalidations)
	}
}
