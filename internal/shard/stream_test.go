package shard

import (
	"context"
	"errors"
	"hash/fnv"
	"io"
	"slices"
	"strconv"
	"sync"
	"testing"

	windowdb "repro"
	"repro/internal/datagen"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/stream"
)

// residencyGauge counts the rows of node batches the coordinator holds:
// charged when a node stream hands a batch over, credited when the stream is
// asked for the next one (which refills it) or ends.
type residencyGauge struct {
	mu       sync.Mutex
	resident int
	peak     int
	last     *stream.Batch // the batch a node stream handed over most recently
}

func (g *residencyGauge) add(b *stream.Batch) {
	g.mu.Lock()
	g.last = b
	g.resident += b.Len()
	if g.resident > g.peak {
		g.peak = g.resident
	}
	g.mu.Unlock()
}

func (g *residencyGauge) sub(n int) {
	g.mu.Lock()
	g.resident -= n
	g.mu.Unlock()
}

func (g *residencyGauge) Peak() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}

func (g *residencyGauge) Resident() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.resident
}

func (g *residencyGauge) Last() *stream.Batch {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.last
}

// countingTransport wraps a Transport and meters the batches that actually
// flow out of its node's streams against a shared gauge — the shuffle
// route's final segment streams included: they are the only point where its
// rows touch the coordinator (the re-shuffled intermediates move
// node-to-node and are never charged).
// It is the measuring instrument for the bounded-memory scatter assertion:
// a RowSource in front of the node's own *windowdb.Rows, handing the node's
// batches on untouched.
type countingTransport struct {
	Transport
	gauge *residencyGauge
}

func (ct *countingTransport) QueryStream(ctx context.Context, req service.ShardQueryRequest) (*windowdb.Rows, error) {
	return ct.counted(ct.Transport.QueryStream(ctx, req))
}

func (ct *countingTransport) counted(inner *windowdb.Rows, err error) (*windowdb.Rows, error) {
	if err != nil {
		return nil, err
	}
	return windowdb.NewRows(&countingSource{inner: inner, gauge: ct.gauge}), nil
}

type countingSource struct {
	inner *windowdb.Rows
	gauge *residencyGauge
	held  int // rows of the batch handed over last, resident until the next pull
}

func (cs *countingSource) Columns() []storage.Column { return cs.inner.ColumnTypes() }

func (cs *countingSource) NextBatch() (*stream.Batch, error) {
	cs.gauge.sub(cs.held)
	cs.held = 0
	b, ok := cs.inner.NextBatch()
	if !ok {
		if err := cs.inner.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	cs.held = b.Len()
	cs.gauge.add(b)
	return b, nil
}

func (cs *countingSource) End(windowdb.Ending) *windowdb.QueryMetrics {
	cs.gauge.sub(cs.held)
	cs.held = 0
	_ = cs.inner.Close()
	return cs.inner.Metrics()
}

// tupleChecksum is an order-insensitive multiset fingerprint: the sum of
// per-tuple FNV-64 hashes. It lets the residency test verify
// value-identity on 120k rows without holding either result set.
func tupleChecksum(sum uint64, row storage.Tuple) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(storage.AppendTuple(nil, row))
	return sum + h.Sum64()
}

// TestScatterStreamBoundedResidency is the acceptance test for the
// streaming scatter path: a 4-shard scatter of the 120k-row Q6 chain
// flows through the coordinator with peak resident rows bounded by the
// wire batch size × shard count, not |R| — while producing exactly the
// single-engine multiset. Node-side memory is the nodes' own (they hold
// their partitions); what this bounds is the coordinator, the process the
// ROADMAP item called out for materializing whole scatter responses.
func TestScatterStreamBoundedResidency(t *testing.T) {
	const (
		rows   = 120_000
		nShard = 4
	)
	engCfg := windowdb.Config{SortMemBytes: 32 << 20, Parallelism: 1}
	gauge := &residencyGauge{}
	shards := make([]Transport, nShard)
	for i := range shards {
		eng := windowdb.New(engCfg)
		shards[i] = &countingTransport{
			Transport: NewLocal(service.New(eng, service.Config{})),
			gauge:     gauge,
		}
	}
	c, err := New(Config{Engine: engCfg}, shards)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ws := datagen.WebSales(datagen.WebSalesConfig{Rows: rows, Seed: 7})
	if err := c.RegisterSharded(ctx, "web_sales", ws, "ws_item_sk"); err != nil {
		t.Fatal(err)
	}

	// Single-engine reference checksum.
	eng := windowdb.New(engCfg)
	eng.Register("web_sales", ws)
	ref, err := eng.Query(q6SQL)
	if err != nil {
		t.Fatal(err)
	}
	var wantSum uint64
	for _, row := range ref.Table.Rows {
		wantSum = tupleChecksum(wantSum, row)
	}

	rc, err := c.QueryContext(ctx, q6SQL)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	var gotSum uint64
	for rc.Next() {
		gotSum = tupleChecksum(gotSum, rc.Row())
		n++
	}
	if err := rc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != rows {
		t.Fatalf("streamed %d rows, want %d", n, rows)
	}
	if gotSum != wantSum {
		t.Fatal("streamed multiset differs from the single-engine result")
	}
	m := rc.Metrics()
	if m == nil || m.Route != "scatter" {
		t.Fatalf("metrics = %+v, want scatter route", m)
	}

	// The bound: every node may have one full batch parked at the
	// coordinator, nothing more. |R| would be 120 000.
	batch := stream.BatchRows(len(rc.Columns()))
	if peak := gauge.Peak(); peak > batch*nShard {
		t.Fatalf("peak resident rows %d exceeds batch*shards = %d", peak, batch*nShard)
	}
	if res := gauge.Resident(); res != 0 {
		t.Fatalf("resident rows %d after drain, want 0", res)
	}
}

// TestScatterPassesBatchesThrough: the scatter merge owns no rows. With no
// LIMIT, every batch the caller's cursor yields is the very batch the
// draining node stream handed over — same pointer, never a copy — and the
// whole scatter's allocations therefore grow with the batches that cross,
// not with their rows: twenty times the rows costs fewer extra objects than
// there are extra batches. A LIMIT cuts the batch that crosses it in place.
func TestScatterPassesBatchesThrough(t *testing.T) {
	ctx := context.Background()
	cluster := func(rows int, wrap func(Transport) Transport) *Cluster {
		engCfg := windowdb.Config{SortMemBytes: 32 << 20, Parallelism: 1}
		shards := make([]Transport, 2)
		for i := range shards {
			shards[i] = wrap(NewLocal(service.New(windowdb.New(engCfg), service.Config{})))
		}
		c, err := New(Config{Engine: engCfg}, shards)
		if err != nil {
			t.Fatal(err)
		}
		ws := datagen.WebSales(datagen.WebSalesConfig{Rows: rows, Seed: 7})
		if err := c.RegisterSharded(ctx, "web_sales", ws, "ws_item_sk"); err != nil {
			t.Fatal(err)
		}
		return c
	}

	// Each node holds about two of q6SQL's batches, so a LIMIT of one and a
	// bit crosses its second batch.
	batch := stream.BatchRows(6)
	rows := 4 * batch
	gauge := &residencyGauge{}
	c := cluster(rows, func(tr Transport) Transport { return &countingTransport{Transport: tr, gauge: gauge} })
	for _, q := range []string{q6SQL, divergeSQL} {
		rc, err := c.QueryContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			b, ok := rc.NextBatch()
			if !ok {
				break
			}
			if b != gauge.Last() {
				t.Fatalf("batch %d of %q is not the node stream's own", n, q)
			}
			n += b.Len()
		}
		if err := rc.Err(); err != nil || n != rows {
			t.Fatalf("%d rows (%v), want %d", n, err, rows)
		}
	}
	rc, err := c.QueryContext(ctx, q6SQL+` LIMIT `+strconv.Itoa(batch+44))
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for {
		b, ok := rc.NextBatch()
		if !ok {
			break
		}
		if b != gauge.Last() {
			t.Fatal("a LIMIT made the merge copy a batch")
		}
		sizes = append(sizes, b.Len())
	}
	if err := rc.Err(); err != nil || !slices.Equal(sizes, []int{batch, 44}) {
		t.Fatalf("LIMIT %d yielded batches of %v (%v)", batch+44, sizes, err)
	}

	allocs := func(rows int) float64 {
		c := cluster(rows, func(tr Transport) Transport { return tr })
		return testing.AllocsPerRun(5, func() {
			rc, err := c.QueryContext(ctx, q6SQL)
			if err != nil {
				t.Fatal(err)
			}
			for {
				if _, ok := rc.NextBatch(); !ok {
					break
				}
			}
			if err := rc.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const small, large = 2_000, 40_000
	if grew, batches := allocs(large)-allocs(small), float64((large-small)/batch); grew >= batches {
		t.Fatalf("%d more rows cost %.0f more allocations per scatter: at least one for each of the %.0f more batches",
			large-small, grew, batches)
	}
}

// streamCluster builds an n-shard cluster keeping handles to the node
// services, for slot-gauge assertions.
func streamCluster(t *testing.T, n, rows int, cfg Config) (*Cluster, []*service.Service) {
	t.Helper()
	svcs := make([]*service.Service, n)
	shards := make([]Transport, n)
	for i := range shards {
		eng := windowdb.New(testEngineConfig())
		svcs[i] = service.New(eng, service.Config{Slots: 1, MaxQueue: -1})
		shards[i] = NewLocal(svcs[i])
	}
	if cfg.Engine.SortMemBytes == 0 {
		cfg.Engine = testEngineConfig()
	}
	c, err := New(cfg, shards)
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

// TestEarlyEndReleasesNodes: a cursor its caller leaves half-drained —
// closed early, or its context cancelled mid-drain — has handed every
// node's admission slot and shuffle inbox back by the time its end returns,
// on each shape of the one route: a chain of zero rounds (Q6), a keyless
// chain shuffled to one node and a key-divergent one. A cancel ends with
// context.Canceled, the statement is counted aborted exactly once, and the
// one-slot, no-queue nodes admit the next statement at once.
func TestEarlyEndReleasesNodes(t *testing.T) {
	ends := []struct {
		name string
		end  func(t *testing.T, rows *windowdb.Rows, cancel context.CancelFunc)
	}{
		{"close", func(t *testing.T, rows *windowdb.Rows, _ context.CancelFunc) {
			if err := rows.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"cancel", func(t *testing.T, rows *windowdb.Rows, cancel context.CancelFunc) {
			cancel()
			for rows.Next() {
			}
			if err := rows.Err(); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		}},
	}
	for _, q := range []struct{ name, sql string }{{"q6", q6SQL}, {"keyless", keylessSQL}, {"diverge", divergeSQL}} {
		for _, e := range ends {
			t.Run(q.name+"/"+e.name, func(t *testing.T) {
				c, svcs := streamCluster(t, 2, 4000, Config{})
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				rows, err := c.QueryContext(ctx, q.sql)
				if err != nil {
					t.Fatal(err)
				}
				var slots int64
				for _, svc := range svcs {
					slots += svc.Stats().InFlight
				}
				if slots == 0 {
					t.Fatal("no node holds an admission slot under an open cursor")
				}
				for i := 0; i < 10; i++ {
					if !rows.Next() {
						t.Fatalf("stream ended early: %v", rows.Err())
					}
				}
				e.end(t, rows, cancel)
				requireIdle(t, c)
				if aborted, failures := c.aborted.Load(), c.failures.Load(); aborted != 1 || failures != 0 {
					t.Fatalf("aborted = %d, failures = %d, want 1 and 0", aborted, failures)
				}
				if _, err := windowdb.Collect(context.Background(), c, q.sql); err != nil {
					t.Fatalf("the next statement: %v", err)
				}
			})
		}
	}
}

// TestScatterStreamLimitStopsEarly: LIMIT on a streamable scatter
// terminates the merge early and still releases every stream.
func TestScatterStreamLimitStopsEarly(t *testing.T) {
	c, _ := streamCluster(t, 2, 4000, Config{})
	rows, err := c.QueryContext(context.Background(), q6SQL+` LIMIT 5`)
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
	if n != 5 {
		t.Fatalf("got %d rows, want 5", n)
	}
	requireIdle(t, c)
}

// TestShuffleStreamBoundedResidency is the acceptance test for the
// shuffle route's coordinator memory: a 4-shard key-divergent two-segment
// chain over 120k rows executes with route "shuffle", produces exactly
// the single-engine multiset, and flows through the coordinator with peak
// resident rows bounded by the wire batch size × shard count — the
// re-shuffled intermediate rows move node-to-node and never appear in a
// coordinator-owned buffer at all.
func TestShuffleStreamBoundedResidency(t *testing.T) {
	const (
		rows   = 120_000
		nShard = 4
	)
	engCfg := windowdb.Config{SortMemBytes: 32 << 20, Parallelism: 1}
	gauge := &residencyGauge{}
	shards := make([]Transport, nShard)
	for i := range shards {
		shards[i] = &countingTransport{
			Transport: NewLocal(service.New(windowdb.New(engCfg), service.Config{})),
			gauge:     gauge,
		}
	}
	c, err := New(Config{Engine: engCfg}, shards)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ws := datagen.WebSales(datagen.WebSalesConfig{Rows: rows, Seed: 7})
	if err := c.RegisterSharded(ctx, "web_sales", ws, "ws_item_sk"); err != nil {
		t.Fatal(err)
	}

	eng := windowdb.New(engCfg)
	eng.Register("web_sales", ws)
	ref, err := eng.Query(divergeSQL)
	if err != nil {
		t.Fatal(err)
	}
	var wantSum uint64
	for _, row := range ref.Table.Rows {
		wantSum = tupleChecksum(wantSum, row)
	}

	rc, err := c.QueryContext(ctx, divergeSQL)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	var gotSum uint64
	for rc.Next() {
		gotSum = tupleChecksum(gotSum, rc.Row())
		n++
	}
	if err := rc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != rows {
		t.Fatalf("streamed %d rows, want %d", n, rows)
	}
	if gotSum != wantSum {
		t.Fatal("shuffled multiset differs from the single-engine result")
	}
	m := rc.Metrics()
	if m == nil || m.Route != "shuffle" {
		t.Fatalf("metrics = %+v, want shuffle route", m)
	}

	// The bound: every node may have one full batch parked at the
	// coordinator during the final merge, nothing more. |R| would be
	// 120 000.
	batch := stream.BatchRows(len(rc.Columns()))
	if peak := gauge.Peak(); peak > batch*nShard {
		t.Fatalf("peak resident rows %d exceeds batch*shards = %d", peak, batch*nShard)
	}
	if res := gauge.Resident(); res != 0 {
		t.Fatalf("resident rows %d after drain, want 0", res)
	}
	requireIdle(t, c)
}

// TestShuffleFailureReleasesSlots: a shuffle whose delivery into one node
// is refused cancels the peer stages, and by the time the statement's
// error returns every node's buffered shuffle state is dropped and every
// admission slot released — for a key-divergent chain and for a keyless
// one alike — and the cluster still serves afterwards.
func TestShuffleFailureReleasesSlots(t *testing.T) {
	c, sched := faultCluster(t, 3, 2000, service.Config{Slots: 1})
	ctx := context.Background()
	for _, src := range []string{divergeSQL, keylessSQL} {
		failuresBefore := c.failures.Load()
		sched.Store(&schedule{fault: refuse, node: 1})
		if _, err := windowdb.Collect(ctx, c, src); !errors.Is(err, errInjected) {
			t.Fatalf("shuffle with a refused delivery: err = %v, want the injected fault", err)
		}
		requireIdle(t, c)
		if c.failures.Load() != failuresBefore+1 {
			t.Fatal("failed shuffle not counted")
		}
	}
	sched.Store(nil)
	// The cluster still serves routes that avoid the broken data plane.
	res, err := windowdb.Collect(ctx, c, q6SQL)
	if err != nil {
		t.Fatalf("scatter after shuffle failure: %v", err)
	}
	if res.Route != "scatter" {
		t.Fatalf("route %q, want scatter", res.Route)
	}
}

// TestCoordCachePerTableInvalidation is the shard-aware plan cache
// slice: registering one table invalidates only that table's plans.
func TestCoordCachePerTableInvalidation(t *testing.T) {
	c, _ := streamCluster(t, 2, 1000, Config{})
	ctx := context.Background()

	// Prime both tables' plans.
	if _, err := windowdb.Collect(ctx, c, q6SQL); err != nil {
		t.Fatal(err)
	}
	empQ := `SELECT empnum, rank() OVER (ORDER BY salary DESC NULLS LAST) AS r FROM emptab`
	if _, err := windowdb.Collect(ctx, c, empQ); err != nil {
		t.Fatal(err)
	}
	res, err := windowdb.Collect(ctx, c, q6SQL)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("second q6 run missed the coordinator cache")
	}

	// Re-registering emptab must not evict web_sales plans...
	if err := c.RegisterReplicated(ctx, "emptab", datagen.Emptab()); err != nil {
		t.Fatal(err)
	}
	res, err = windowdb.Collect(ctx, c, q6SQL)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("re-registering emptab invalidated web_sales plans")
	}
	// ...but it does evict emptab's.
	res, err = windowdb.Collect(ctx, c, empQ)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("re-registering emptab kept its stale plan")
	}

	// And re-registering web_sales evicts the q6 plan.
	before := c.front.CacheStats().Invalidations
	ws := datagen.WebSales(datagen.WebSalesConfig{Rows: 1000, Seed: 8})
	if err := c.RegisterSharded(ctx, "web_sales", ws, "ws_item_sk"); err != nil {
		t.Fatal(err)
	}
	if got := c.front.CacheStats().Invalidations; got <= before {
		t.Fatalf("invalidations %d not advanced past %d", got, before)
	}
	res, err = windowdb.Collect(ctx, c, q6SQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("re-registering web_sales kept its stale plan")
	}
}

// TestCoordCacheEvictsLeastRecent: past capacity the coordinator plan cache
// drops its least recently used plan — one eviction, counted, not a reset
// of the whole cache — and the most recent plan still hits.
func TestCoordCacheEvictsLeastRecent(t *testing.T) {
	const capacity = 2
	eng := testEngineConfig()
	eng.PlanCacheEntries = capacity
	c, _ := streamCluster(t, 2, 300, Config{Engine: eng})
	ctx := context.Background()
	queries := []string{
		`SELECT ws_item_sk FROM web_sales LIMIT 1`,
		`SELECT ws_quantity FROM web_sales LIMIT 1`,
		`SELECT ws_warehouse_sk FROM web_sales LIMIT 1`,
	}
	for _, q := range queries {
		if _, err := windowdb.Collect(ctx, c, q); err != nil {
			t.Fatal(err)
		}
	}
	st := c.front.CacheStats()
	if st.Size != capacity || st.Evictions != 1 {
		t.Fatalf("size=%d evictions=%d after %d statements, want %d/1", st.Size, st.Evictions, len(queries), capacity)
	}
	res, err := windowdb.Collect(ctx, c, queries[len(queries)-1])
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("most recent statement evicted")
	}
}
