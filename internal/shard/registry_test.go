package shard

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/service"
	"repro/internal/trace"
)

// TestKillMidShuffle: DELETE /debug/queries/{id} on the coordinator while a
// shuffle round is in flight — node 0's first stage stalled until the kill
// lands — cancels the peer stages, and by the time the statement's error
// returns every node's inbox buffers are dropped, every admission slot is
// back and every registry is empty; the query is classified as aborted, and
// the cluster still serves.
func TestKillMidShuffle(t *testing.T) {
	c, sched := faultCluster(t, 3, 4000, service.Config{Slots: 1, MaxQueue: -1})
	stalled := make(chan struct{})
	sched.Store(&schedule{fault: stall, stalled: stalled})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	id := trace.NewID()
	qctx := trace.NewContext(context.Background(), id)
	errCh := make(chan error, 1)
	go func() {
		rows, err := c.QueryContext(qctx, divergeSQL)
		if err == nil {
			for rows.Next() {
			}
			err = rows.Err()
			_ = rows.Close()
		}
		errCh <- err
	}()

	select {
	case <-stalled:
	case <-time.After(10 * time.Second):
		t.Fatal("shuffle round never started")
	}

	// The frozen query is visible in the coordinator's registry with its
	// live phase.
	resp, err := srv.Client().Get(srv.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	var infos []trace.QueryInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, info := range infos {
		if info.ID == id {
			found = true
			if info.Backend != "coordinator" {
				t.Fatalf("backend = %q, want coordinator", info.Backend)
			}
			if info.Phase == "" {
				t.Fatal("in-flight query has no phase")
			}
		}
	}
	if !found {
		t.Fatalf("query %s not listed in /debug/queries: %+v", id, infos)
	}

	// Kill it through the HTTP surface.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/debug/queries/"+id, nil)
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE answered %s, want 200", resp.Status)
	}

	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("killed query must surface an error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("killed query never returned")
	}

	sched.Store(nil)
	requireIdle(t, c)
	if got := c.aborted.Load(); got != 1 {
		t.Fatalf("cluster aborted = %d, want 1", got)
	}
	if got := c.failures.Load(); got != 0 {
		t.Fatalf("cluster failures = %d, want 0 (a kill is an abort, not a fault)", got)
	}

	if _, err := windowdb.Collect(context.Background(), c, divergeSQL); err != nil {
		t.Fatalf("query after kill: %v", err)
	}
}

// TestLiveCountersAdvance: polling the registry twice during one
// in-flight statement shows its counters moving — rows emitted grow
// between polls — on every front end whose cursor counts them: a
// coordinator's shuffle merge, a coordinator's finalize cursor (ORDER BY)
// and a single served engine. The shuffle also records its shuffle rows,
// its node entries and its imbalance gauge. Each entry leaves its registry
// when the cursor finishes, counted as served, with nothing held.
func TestLiveCountersAdvance(t *testing.T) {
	// front is what a case's statement runs on: its Queryer, its registry,
	// and the check that nothing is held and one statement was served.
	type front struct {
		q     windowdb.Queryer
		reg   *trace.Registry
		after func(t *testing.T)
	}
	cluster := func(t *testing.T) (front, *Cluster) {
		c, _ := streamCluster(t, 2, 20_000, Config{})
		return front{q: c, reg: c.Registry(), after: func(t *testing.T) {
			requireIdle(t, c)
			if got := c.queries.Load(); got != 1 {
				t.Fatalf("queries = %d, want 1", got)
			}
		}}, c
	}
	for _, tc := range []struct {
		name     string
		src      string
		shuffled bool
		open     func(t *testing.T) (front, *Cluster) // the cluster is nil for a single engine
	}{
		{"coordinator shuffle", divergeSQL, true, cluster},
		{"coordinator finalize", `SELECT ws_order_number,
 rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a
 FROM web_sales ORDER BY ws_order_number, a`, false, cluster},
		{"served engine", divergeSQL, false, func(t *testing.T) (front, *Cluster) {
			svc := service.New(singleEngine(20_000), service.Config{})
			return front{q: svc, reg: svc.Registry(), after: func(t *testing.T) {
				if held := svc.Stats().Held(); held != "" {
					t.Fatalf("held after the statement ended: %s", held)
				}
				if got := svc.Queries.Load(); got != 1 {
					t.Fatalf("queries = %d, want 1", got)
				}
			}}, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, c := tc.open(t)
			id := trace.NewID()
			ctx := trace.NewContext(context.Background(), id)
			rows, err := f.q.QueryContext(ctx, tc.src)
			if err != nil {
				t.Fatal(err)
			}
			defer rows.Close()

			poll := func() trace.QueryInfo {
				t.Helper()
				for _, info := range f.reg.Snapshot() {
					if info.ID == id {
						return info
					}
				}
				t.Fatalf("query %s not in registry", id)
				return trace.QueryInfo{}
			}

			for i := 0; i < 100; i++ {
				if !rows.Next() {
					t.Fatalf("stream ended early: %v", rows.Err())
				}
			}
			first := poll()
			if first.Phase != "draining" {
				t.Fatalf("phase = %q mid-drain, want draining", first.Phase)
			}
			if first.RowsEmitted < 100 {
				t.Fatalf("rows_emitted = %d after 100 rows, want >= 100", first.RowsEmitted)
			}
			if tc.shuffled && first.ShuffleRows == 0 {
				t.Fatal("shuffle rounds recorded no shuffle rows")
			}
			for i := 0; i < 1000; i++ {
				if !rows.Next() {
					t.Fatalf("stream ended early: %v", rows.Err())
				}
			}
			second := poll()
			if second.RowsEmitted <= first.RowsEmitted {
				t.Fatalf("rows_emitted did not advance between polls: %d then %d", first.RowsEmitted, second.RowsEmitted)
			}

			if tc.shuffled {
				// The node tier registered its shuffle stages under the same
				// ID, so the coordinator's merged view has a per-node subtree
				// while the final-segment streams are still draining.
				merged, _ := c.LiveQueries(context.Background())
				for _, info := range merged {
					if info.ID == id && len(info.Nodes) == 0 {
						t.Fatal("merged view has no node subtree for the draining query")
					}
				}
			}

			for rows.Next() {
			}
			if err := rows.Err(); err != nil {
				t.Fatal(err)
			}
			if err := rows.Close(); err != nil {
				t.Fatal(err)
			}
			f.after(t)
			if tc.shuffled {
				if ratio := c.ShuffleImbalance(); ratio < 1 {
					t.Fatalf("shuffle imbalance ratio = %v, want >= 1 after a shuffle round", ratio)
				}
			}
		})
	}
}

// TestCoordinatorMetricsExposition: the coordinator's /metrics carries the
// new observability families.
func TestCoordinatorMetricsExposition(t *testing.T) {
	c, _ := streamCluster(t, 2, 2000, Config{})
	if _, err := windowdb.Collect(context.Background(), c, divergeSQL); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"windowdb_queries_aborted_total",
		"windowdb_live_queries",
		"windowdb_shuffle_round_imbalance",
		"windowdb_block_pool_held",
		"windowdb_sort_workspace_bytes",
		"windowdb_workspace_bytes",
		"windowdb_arena_pool_bytes",
		"windowdb_build_info{",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}
