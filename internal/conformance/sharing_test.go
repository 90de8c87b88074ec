package conformance

import (
	"context"
	"fmt"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	windowdb "repro"
	"repro/internal/service"
	"repro/internal/storage"
)

// Factored-execution conformance. Every service-backed backend in this
// package runs with the shared-subplan cache on (the default), so the main
// suite already pins factored execution against the raw engine reference
// statement by statement. The tests here pin the sharing-specific claims:
// a statement served from another statement's scan (a frame-lattice hit)
// stays value-identical and, under a total ORDER BY, order-identical; a
// repeated statement served from its own cached segment (an exact hit)
// reproduces the private row order bit for bit; and concurrent appends
// never let a shared segment serve a stale or torn read.

// shareGrains is the correlated mix: one partition key, finest grain
// first so later statements can lattice-attach to its reorder.
var shareGrains = []string{
	`SELECT ws_item_sk, ws_order_number, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk, ws_sold_time_sk, ws_order_number) AS r FROM web_sales`,
	`SELECT ws_item_sk, ws_order_number, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk, ws_sold_time_sk) AS r FROM web_sales`,
	`SELECT ws_item_sk, ws_order_number, sum(ws_quantity) OVER (PARTITION BY ws_item_sk) AS s FROM web_sales`,
}

// shareGrainsOrdered pins exact order: the total ORDER BY forces the final
// sort, so factored and private execution must emit identical sequences.
const shareGrainsOrdered = `SELECT ws_item_sk, ws_order_number, sum(ws_quantity) OVER (PARTITION BY ws_item_sk) AS s FROM web_sales ORDER BY ws_item_sk, ws_order_number`

// TestFactoredStatementIdentity: the lattice mix served through a sharing
// service and its remote client matches the engine's private, unrewritten
// execution — multiset-identical without an ORDER BY, sequence-identical
// with one — and a repeated statement (an exact shared hit) reproduces its
// own first answer bit for bit.
func TestFactoredStatementIdentity(t *testing.T) {
	eng := newEngine()
	svc := service.New(eng, service.Config{Slots: 2})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	client := service.NewClientCodec(srv.URL, srv.Client(), service.CodecBinary)

	ref := newEngine() // private execution: no service, no sharing
	queryers := []struct {
		name string
		q    windowdb.Queryer
	}{{"service", svc}, {"client", client}}

	for _, bk := range queryers {
		for i, q := range shareGrains {
			want, err := ref.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			wantEnc := make([][]byte, want.Table.Len())
			for j, r := range want.Table.Rows {
				wantEnc[j] = storage.AppendTuple(nil, r)
			}
			_, got := drain(t, bk.q, q)
			if !slices.Equal(fingerprint(got, false), fingerprint(wantEnc, false)) {
				t.Fatalf("%s grain %d: factored result differs from private execution (%d vs %d rows)",
					bk.name, i, len(got), len(wantEnc))
			}
		}
		// Total ORDER BY: exact sequence identity.
		want, err := ref.Query(shareGrainsOrdered)
		if err != nil {
			t.Fatal(err)
		}
		wantEnc := make([][]byte, want.Table.Len())
		for j, r := range want.Table.Rows {
			wantEnc[j] = storage.AppendTuple(nil, r)
		}
		_, got := drain(t, bk.q, shareGrainsOrdered)
		if !slices.Equal(fingerprint(got, true), fingerprint(wantEnc, true)) {
			t.Fatalf("%s: ORDER BY sequence differs between factored and private execution", bk.name)
		}
		// Exact hit: the second run answers from the cached segment and
		// must reproduce the first run's order exactly.
		_, first := drain(t, bk.q, shareGrains[0])
		_, second := drain(t, bk.q, shareGrains[0])
		if !slices.Equal(fingerprint(first, true), fingerprint(second, true)) {
			t.Fatalf("%s: repeated statement changed row order on the shared hit", bk.name)
		}
	}
	st := svc.Stats().Subplans
	if st.Hits+st.Attaches == 0 {
		t.Fatal("the run never exercised the shared path — the identity claims tested nothing")
	}
}

// TestFactoredFreshnessUnderAppends: with appends racing the correlated
// mix, every served result must correspond to some append generation
// (never a torn read), a query issued after an append must see it (never a
// stale shared segment), and once the appends settle every grain must be
// value-identical to private execution over the final table.
func TestFactoredFreshnessUnderAppends(t *testing.T) {
	ws, _ := dataset()
	eng := windowdb.New(engCfg())
	eng.Register("web_sales", ws)
	svc := service.New(eng, service.Config{Slots: 4})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	client := service.NewClientCodec(srv.URL, srv.Client(), service.CodecBinary)

	const batches, batch = 8, 25
	base := ws.Len()
	valid := make(map[int]bool, batches+1)
	for k := 0; k <= batches; k++ {
		valid[base+k*batch] = true
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	errCh := make(chan error, 64)

	// Queriers: mid-flight the table moves, so exact comparison is not
	// defined — but every window function here emits one row per input
	// row, so a row count off the append lattice is a torn or stale read.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				q := shareGrains[(g+i)%len(shareGrains)]
				rows, err := client.QueryContext(ctx, q)
				if err != nil {
					errCh <- err
					return
				}
				n := 0
				for rows.Next() {
					n++
				}
				err = rows.Err()
				rows.Close()
				if err != nil {
					errCh <- err
					return
				}
				if !valid[n] {
					errCh <- fmt.Errorf("served %d rows: not a valid append generation of %d+k*%d", n, base, batch)
					return
				}
			}
		}(g)
	}
	// Appender with read-your-writes checks: a query issued after an
	// append returns must see at least that generation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		fresh := make([]storage.Tuple, batch)
		for b := 0; b < batches; b++ {
			for i := range fresh {
				fresh[i] = append(storage.Tuple(nil), ws.Rows[(b*batch+i)%base]...)
			}
			if _, err := svc.Append(ctx, "web_sales", fresh, 0); err != nil {
				errCh <- err
				return
			}
			want := base + (b+1)*batch
			res, err := windowdb.Collect(ctx, svc, shareGrains[b%len(shareGrains)])
			if err != nil {
				errCh <- err
				return
			}
			if res.Table.Len() < want {
				errCh <- fmt.Errorf("stale read: %d rows served after appending through %d", res.Table.Len(), want)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Settled: private execution over the final table is the reference.
	for i, q := range append(slices.Clone(shareGrains), shareGrainsOrdered) {
		want, err := eng.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		wantEnc := make([][]byte, want.Table.Len())
		for j, r := range want.Table.Rows {
			wantEnc[j] = storage.AppendTuple(nil, r)
		}
		ordered := q == shareGrainsOrdered
		_, got := drain(t, client, q)
		if !slices.Equal(fingerprint(got, ordered), fingerprint(wantEnc, ordered)) {
			t.Fatalf("grain %d: post-append factored result differs from private execution (%d vs %d rows)",
				i, len(got), len(wantEnc))
		}
	}
	st := svc.Stats().Subplans
	if st.Invalidations == 0 {
		t.Error("appends never invalidated a shared subplan")
	}
}
