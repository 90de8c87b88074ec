package stream_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	windowdb "repro"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/paper"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/stream"
)

// kept is what a reader held on to while it drained a cursor: the tuple
// Row() gave it, what it scanned out of the same row, and the row's
// encoding as it stood at that moment.
type kept struct {
	row     storage.Tuple
	scanned storage.Tuple // via Scan into *storage.Value
	strs    []string      // via Scan into *any: every string column as a Go string
	then    []byte
}

// drainKeeping reads rows a row at a time, keeping everything, and only
// once the cursor is dry — every batch handed back and poisoned — holds
// what it kept to what it saw.
func drainKeeping(t *testing.T, rows *windowdb.Rows, stop func(n int) bool) []kept {
	t.Helper()
	var out []kept
	w := len(rows.Columns())
	for rows.Next() {
		k := kept{row: rows.Row(), scanned: make(storage.Tuple, w)}
		dest := make([]any, w)
		for i := range dest {
			dest[i] = &k.scanned[i]
		}
		if err := rows.Scan(dest...); err != nil {
			t.Fatal(err)
		}
		anys := make([]any, w)
		for i := range dest {
			dest[i] = &anys[i]
		}
		if err := rows.Scan(dest...); err != nil {
			t.Fatal(err)
		}
		for _, a := range anys {
			if s, ok := a.(string); ok {
				k.strs = append(k.strs, s)
			}
		}
		k.then = storage.AppendTuple(nil, k.row)
		out = append(out, k)
		if stop != nil && stop(len(out)) {
			break
		}
	}
	if stop == nil {
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
	}
	_ = rows.Close()
	for i, k := range out {
		if now := storage.AppendTuple(nil, k.row); string(now) != string(k.then) {
			t.Fatalf("row %d changed after the cursor moved on: %v", i, k.row)
		}
		var strs []string
		for c, v := range k.scanned {
			if !storage.Identical(v, k.row[c]) {
				t.Fatalf("row %d col %d: scanned %v, Row() %v", i, c, v, k.row[c])
			}
			if v.Kind() == storage.KindString {
				strs = append(strs, v.Str())
			}
		}
		if fmt.Sprint(strs) != fmt.Sprint(k.strs) {
			t.Fatalf("row %d: strings scanned as %q, now %q", i, k.strs, strs)
		}
	}
	return out
}

// TestReusedBatchesAreNeverRead is the use-after-reuse matrix: with every
// batch overwritten the moment it goes back for a refill, what a reader
// kept — Row() tuples, scanned values, scanned strings — is intact after
// the drain and equals the eager execution's table, for the paper's Q1–Q9,
// the benchmark's F1–F6 and a string-carrying chain, read in process and
// through the binary wire (the server's cursor and frame writer, the
// client's frame reader and decode-into batch, two statements at once), and
// for a subscription's one-row batches.
func TestReusedBatchesAreNeverRead(t *testing.T) {
	defer stream.PoisonReused()()

	gen := datagen.WebSalesConfig{Rows: 3000, Seed: 42, PadBytes: 24}
	notes := storage.NewTable(storage.NewSchema(
		storage.Column{Name: "id", Type: storage.TypeInt},
		storage.Column{Name: "grp", Type: storage.TypeInt},
		storage.Column{Name: "note", Type: storage.TypeString},
	))
	for i := 0; i < 1000; i++ {
		note := storage.StringVal(fmt.Sprintf("note %d %s", i, string(rune('a'+i%26))))
		if i%9 == 0 {
			note = storage.Null
		}
		notes.Rows = append(notes.Rows, storage.Tuple{storage.Int(int64(i)), storage.Int(int64(i % 13)), note})
	}
	eng := windowdb.New(windowdb.Config{SortMemBytes: 64 << 10, BlockSize: 1024, Parallelism: 1})
	eng.Register("web_sales", datagen.WebSales(gen))
	eng.Register("web_sales_s", datagen.WebSalesSorted(gen))
	eng.Register("web_sales_g", datagen.WebSalesGrouped(gen))
	eng.Register("notes", notes)
	eng.Register("emptab", datagen.Emptab())
	srv := httptest.NewServer(service.New(eng, service.Config{Slots: 2}).Handler())
	defer srv.Close()
	readers := []struct {
		name string
		q    windowdb.Queryer
	}{{"engine", eng}, {"client", service.NewClient(srv.URL, srv.Client())}}

	statements := map[string]string{
		"notes": `SELECT id, note, grp, rank() OVER (PARTITION BY grp ORDER BY id) AS r,
			lag(note, 1) OVER (PARTITION BY grp ORDER BY id) AS prev FROM notes`,
	}
	for name, src := range paper.Statements {
		statements[name] = src
	}
	names := make([]string, 0, len(statements))
	for name := range statements {
		names = append(names, name)
	}
	sort.Strings(names)
	ctx := context.Background()
	for _, name := range names {
		p, err := eng.Prepare(statements[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := p.ExecuteContext(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, rd := range readers {
			read := func(t *testing.T) {
				rows, err := rd.q.QueryContext(ctx, statements[name])
				if err != nil {
					t.Fatal(err)
				}
				got := drainKeeping(t, rows, nil)
				if len(got) != want.Table.Len() {
					t.Fatalf("%d rows, execute has %d", len(got), want.Table.Len())
				}
				// As multisets: the service may serve a statement from a
				// shared, finer-sorted scan, which orders ties differently.
				gotEnc, wantEnc := make([]string, len(got)), make([]string, len(got))
				for i, k := range got {
					gotEnc[i] = string(storage.AppendTuple(nil, k.row))
					wantEnc[i] = string(storage.AppendTuple(nil, want.Table.Rows[i]))
				}
				sort.Strings(gotEnc)
				sort.Strings(wantEnc)
				for i := range gotEnc {
					if gotEnc[i] != wantEnc[i] {
						t.Fatalf("the rows read differ from execute's (at %d of the sorted encodings)", i)
					}
				}
			}
			t.Run(name+"/"+rd.name, func(t *testing.T) {
				if rd.name != "client" {
					read(t)
					return
				}
				// Two statements at once over the one client: their wire
				// workspaces — the server's frame writers, the client's
				// frame readers and batches — go back to their lists,
				// poisoned, while the other stream runs.
				for i := 0; i < 2; i++ {
					t.Run(fmt.Sprint(i), func(t *testing.T) {
						t.Parallel()
						read(t)
					})
				}
			})
		}
	}

	for _, rd := range readers {
		t.Run("subscription/"+rd.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
			defer cancel()
			rows, err := rd.q.QueryContext(ctx, `SUBSCRIBE SELECT empnum, salary, rank() OVER (PARTITION BY dept ORDER BY salary) AS r FROM emptab`)
			if err != nil {
				t.Fatal(err)
			}
			initial := datagen.Emptab().Len()
			appended := false
			got := drainKeeping(t, rows, func(n int) bool {
				if n == initial && !appended {
					appended = true
					if _, _, err := eng.Append("emptab", []storage.Tuple{
						{storage.Int(901), storage.Int(10), storage.Int(1)},
						{storage.Int(902), storage.Int(20), storage.Int(2)},
					}); err != nil {
						t.Fatal(err)
					}
				}
				return n >= initial+2
			})
			if len(got) < initial+2 {
				t.Fatalf("subscription yielded %d rows, want the %d initial ones and the deltas of two appended", len(got), initial)
			}
		})
	}
}

// TestClusterKeepsNoBatchPastItsRefill runs every way rows cross a
// coordinator under the poison switch, over 2 and 3 nodes. Three of them
// hand the node's batch straight to the caller (scatter, a shuffle's final
// segment, and a keyless chain's — gathered at one node, which streams every
// row, its peers none); one copies its rows out before asking for the next
// (the drain that feeds a coordinator-side DISTINCT/ORDER BY). Over
// in-process nodes the batch is the node cursor's own and over HTTP the
// stream reader's: a tuple, a vector or a string that outlived either shows
// as poison in what the reader kept, and what it kept equals the single
// engine's rows. Every chain spills, and recycled arena memory is poisoned
// too: a ws_pad string a node's spill read back, kept past the node cursor's
// Close, shows as well — and so does one a stage before the last encoded
// after releasing its chain, which the three-segment chain's middle stage
// would ship to its peers.
func TestClusterKeepsNoBatchPastItsRefill(t *testing.T) {
	defer stream.PoisonReused()()
	defer storage.PoisonRewound()()

	ctx := context.Background()
	engCfg := windowdb.Config{SortMemBytes: 64 << 10, BlockSize: 1024, Parallelism: 1}
	ws := datagen.WebSales(datagen.WebSalesConfig{Rows: 3000, Seed: 42, PadBytes: 24})
	eng := windowdb.New(engCfg)
	eng.Register("web_sales", ws)

	clusters := map[string]func() shard.Transport{
		"local": func() shard.Transport {
			return shard.NewLocal(service.New(windowdb.New(engCfg), service.Config{}))
		},
		"http": func() shard.Transport {
			srv := httptest.NewServer(service.New(windowdb.New(engCfg), service.Config{ShardRoutes: true}).Handler())
			t.Cleanup(srv.Close)
			return shard.NewHTTP(srv.URL, srv.Client())
		},
	}
	paths := []struct {
		route, name, sql string
		segments         int // of the plan, when the path needs that many
	}{
		{"scatter", "pass-through", `SELECT ws_item_sk, ws_pad, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r FROM web_sales`, 0},
		{"shuffle", "final segment", `SELECT ws_order_number, ws_pad,
			rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a,
			rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_date_sk) AS b FROM web_sales`, 2},
		{"shuffle", "middle stage", `SELECT ws_order_number, ws_pad,
			rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a,
			rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_pad) AS b,
			rank() OVER (PARTITION BY ws_bill_customer_sk ORDER BY ws_sold_time_sk) AS c FROM web_sales`, 3},
		{"scatter", "concat drain", `SELECT ws_order_number, ws_pad, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r FROM web_sales ORDER BY ws_order_number`, 0},
		{"shuffle", "gather", `SELECT ws_order_number, ws_pad, rank() OVER (ORDER BY ws_sold_time_sk) AS r FROM web_sales`, 0},
	}
	for transport, node := range clusters {
		for _, n := range []int{2, 3} {
			nodes := make([]shard.Transport, n)
			for i := range nodes {
				nodes[i] = node()
			}
			c, err := shard.New(shard.Config{Engine: engCfg}, nodes)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.RegisterSharded(ctx, "web_sales", ws, "ws_item_sk"); err != nil {
				t.Fatal(err)
			}
			cluster := transport // 2 nodes; wider clusters say how wide
			if n > 2 {
				cluster = fmt.Sprintf("%s-%d", transport, n)
			}
			for _, p := range paths {
				t.Run(cluster+"/"+p.name, func(t *testing.T) {
					want, err := eng.Query(p.sql)
					if err != nil {
						t.Fatal(err)
					}
					rows, err := c.QueryContext(ctx, p.sql)
					if err != nil {
						t.Fatal(err)
					}
					got := drainKeeping(t, rows, nil)
					if m := rows.Metrics(); m == nil || m.Route != p.route {
						t.Fatalf("metrics %+v, want route %s", m, p.route)
					} else if segs := len(exec.Segments(m.Plan)); p.segments > 0 && segs != p.segments {
						t.Fatalf("the plan has %d segments, the path needs %d: %s", segs, p.segments, m.Chain)
					}
					if len(got) != want.Table.Len() {
						t.Fatalf("%d rows, the single engine has %d", len(got), want.Table.Len())
					}
					gotEnc, wantEnc := make([]string, len(got)), make([]string, len(got))
					for i, k := range got {
						gotEnc[i] = string(storage.AppendTuple(nil, k.row))
						wantEnc[i] = string(storage.AppendTuple(nil, want.Table.Rows[i]))
					}
					sort.Strings(gotEnc)
					sort.Strings(wantEnc)
					for i := range gotEnc {
						if gotEnc[i] != wantEnc[i] {
							t.Fatalf("the rows read differ from the single engine's (at %d of the sorted encodings)", i)
						}
					}
				})
			}
		}
	}
}
