package service

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro"
	"repro/internal/cache"
	"repro/internal/datagen"
	"repro/internal/storage"
)

// raceEnabled reports a -race build, whose instrumentation allocates.
var raceEnabled bool

// TestWarmHitAllocations pins what a warm plan-cache hit and a warm
// shared-subplan hit allocate, key rendering and identity included. Each
// renders its key into a buffer from a free list, which never drops it,
// and looks it up without converting it: nothing, under -race too.
func TestWarmHitAllocations(t *testing.T) {
	const planHit, subplanHit = 0, 0
	svc := newTestService(t, Config{Slots: 2}, 500)
	ctx := context.Background()
	if _, err := windowdb.Collect(ctx, svc, shareQFine); err != nil {
		t.Fatal(err)
	}
	prep, _, err := svc.eng.Resolve(ctx, shareQFine)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if _, disp, err := svc.eng.Resolve(ctx, shareQFine); err != nil || disp != cache.Hit {
			t.Fatalf("warm plan lookup: %q, %v", disp, err)
		}
	})
	t.Logf("warm plan-cache hit: %v allocations", got)
	if got > planHit {
		t.Errorf("warm plan-cache hit allocates %v times, want at most %v", got, planHit)
	}
	got = testing.AllocsPerRun(100, func() {
		if _, disp, err := svc.sharedSegment(ctx, prep); err != nil || disp != cache.Hit {
			t.Fatalf("warm subplan lookup: %q, %v", disp, err)
		}
	})
	t.Logf("warm subplan hit: %v allocations", got)
	if got > subplanHit {
		t.Errorf("warm subplan hit allocates %v times, want at most %v", got, subplanHit)
	}
}

// TestQuotedIdentifierQuery: a statement spelled with quoted identifiers
// executes and keys to the same cached plan as its bare spelling.
func TestQuotedIdentifierQuery(t *testing.T) {
	svc := newTestService(t, Config{Slots: 2}, 500)
	quoted := `SELECT "ws_item_sk", rank() OVER (PARTITION BY "ws_item_sk" ORDER BY "ws_sold_time_sk") AS r FROM "web_sales"`

	ctx := context.Background()
	bare, err := windowdb.Collect(ctx, svc, mixQ1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := windowdb.Collect(ctx, svc, quoted)
	if err != nil {
		t.Fatalf("quoted-identifier statement failed: %v", err)
	}
	if !res.CacheHit {
		t.Fatal("quoted spelling missed the plan cached under the bare spelling")
	}
	assertSameMultiset(t, quoted, bare.Table, res.Table)
}

// TestCacheHammer drives both caches of one service while re-registrations
// of both tables and appends race queries over both — the -race exercise
// of the one fill rule. Every result has the row count of a version of its
// table that really existed, and once the writers stop, one more lookup per
// cache leaves no stale entry behind.
func TestCacheHammer(t *testing.T) {
	const wsRows, wsStep, versions, appends = 600, 100, 5, 20
	const empQ = `SELECT empnum, rank() OVER (ORDER BY salary DESC NULLS LAST) AS r FROM emptab`
	ws := make([]*storage.Table, versions)
	emp := make([]*storage.Table, versions)
	for v := range ws {
		ws[v] = datagen.WebSales(datagen.WebSalesConfig{Rows: wsRows + wsStep*v, Seed: int64(v + 1)})
		emp[v] = datagen.Emptab()
		emp[v].Rows = emp[v].Rows[:10-v]
	}
	// A web_sales result is version v plus at most every appended row; an
	// emptab one is a prefix of the relation.
	valid := func(q string, n int) bool {
		if q == empQ {
			return n > 10-versions && n <= 10
		}
		off := n - wsRows
		return off >= 0 && off/wsStep < versions && off%wsStep <= appends
	}
	eng := windowdb.New(windowdb.Config{SortMemBytes: 4 << 20, Parallelism: 1, PlanCacheEntries: 8})
	eng.Register("web_sales", ws[0])
	eng.Register("emptab", emp[0])
	svc := New(eng, Config{Slots: 4, SubplanEntries: 4})
	ctx := context.Background()

	var writers, readers sync.WaitGroup
	registered := make(chan struct{})
	writers.Add(2)
	go func() {
		defer writers.Done()
		defer close(registered)
		for i := 1; i <= 3*versions; i++ {
			eng.Register("web_sales", ws[i%versions])
			eng.Register("emptab", emp[i%versions])
			runtime.Gosched()
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < appends; i++ {
			if i == appends-1 {
				// The last write is an append over a cached segment: no epoch
				// move sweeps that segment away, only the next miss does.
				<-registered
				if _, err := windowdb.Collect(ctx, svc, shareQFine); err != nil {
					t.Error(err)
					return
				}
			}
			row := slices.Clone(ws[0].Rows[i])
			if _, err := svc.Append(ctx, "web_sales", []storage.Tuple{row}, 0); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()
	mix := []string{shareQFine, shareQMid, shareQCoarse, mixQ1, empQ}
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; i < 30; i++ {
				q := mix[(g+i)%len(mix)]
				res, err := windowdb.Collect(ctx, svc, q)
				if err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
				if !valid(q, res.Table.Len()) {
					t.Errorf("%s served %d rows: no version of its table had that many", q, res.Table.Len())
					return
				}
			}
		}(g)
	}
	writers.Wait()
	readers.Wait()

	// One more lookup per cache: a shareable web_sales statement goes
	// through both, and reads the table as it now is.
	res, err := windowdb.Collect(ctx, svc, shareQFine)
	if err != nil {
		t.Fatal(err)
	}
	if cur, _ := eng.Table("web_sales"); res.Table.Len() != cur.Len() {
		t.Fatalf("after the writers stopped: %d rows, the table has %d", res.Table.Len(), cur.Len())
	}
	// Registering a table no statement reads moves the epoch, so the next
	// Stats sweeps every entry — and may find none stale.
	before := svc.Stats()
	eng.Register("probe", emp[0])
	after := svc.Stats()
	if after.Cache.Invalidations != before.Cache.Invalidations || after.Subplans.Invalidations != before.Subplans.Invalidations {
		t.Fatalf("stale entries outlived the last lookup: plan cache %d, subplan cache %d",
			after.Cache.Invalidations-before.Cache.Invalidations, after.Subplans.Invalidations-before.Subplans.Invalidations)
	}
}
