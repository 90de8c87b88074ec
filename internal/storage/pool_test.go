package storage_test

import (
	"context"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"testing"

	windowdb "repro"
	"repro/internal/attrs"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/pagestore"
	"repro/internal/paper"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/window"
)

// paperChains runs the paper's queries over one 16 000-row web_sales table,
// the chain_spill workload's size, each planned by CSO for its budget and
// run through RunChain.
type paperChains struct {
	table *storage.Table
	entry *catalog.Entry
}

const chainBlock = 8192

func newPaperChains() *paperChains {
	table := datagen.WebSales(datagen.WebSalesConfig{Rows: 16_000, Seed: 20120827, PadBytes: 24})
	return &paperChains{table: table, entry: catalog.New().Register("web_sales", table)}
}

// spillBudget is the chain_spill budget, M = floor(0.85*sqrt(B/2)) blocks.
func (s *paperChains) spillBudget() int {
	return max(int(0.85*math.Sqrt(float64(s.table.ByteSize()/chainBlock)/2)), 3) * chainBlock
}

// run runs specs at budget mem and fails unless the chain keeps derived
// columns in its rows (L > 0) and spills exactly when spill says.
func (s *paperChains) run(t *testing.T, specs []window.Spec, mem int, spill bool) *exec.Chain {
	t.Helper()
	plan, err := core.CSO(paper.WFs(specs), core.Unordered(), core.Options{Cost: s.entry.CostParams(mem, chainBlock)})
	if err != nil {
		t.Fatal(err)
	}
	chain, m, err := exec.RunChain(context.Background(), s.table, specs, plan, exec.Config{MemoryBytes: mem, BlockSize: chainBlock, Distinct: s.entry.Distinct})
	if err != nil {
		t.Fatal(err)
	}
	if (m.TotalBlocks() > 0) != spill || chain.Width == s.table.Schema.Len() {
		t.Fatalf("%s: %d blocks and %d derived columns in the rows, want L > 0 and spilling %v", plan, m.TotalBlocks(), chain.Width-s.table.Schema.Len(), spill)
	}
	return chain
}

// TestRecycledChainBytesPerRow pins the gain: a spilling L > 0 chain run a
// second time carves the slabs the first one released — its row array,
// every row a spill read back and the strings in those rows — and allocates
// what is left of a statement, under a stated bound per row.
func TestRecycledChainBytesPerRow(t *testing.T) {
	s := newPaperChains()
	n, mem := float64(s.table.Len()), s.spillBudget()
	// Bytes per row, less the spill pages the block pool had to allocate:
	// it is a sync.Pool, which a GC empties and the race detector drops
	// from at random, and the pages are not the arena's.
	allocated := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pages, _ := pagestore.PoolCounters()
		f()
		runtime.ReadMemStats(&after)
		morePages, _ := pagestore.PoolCounters()
		return (float64(after.TotalAlloc-before.TotalAlloc) - float64((morePages-pages)*chainBlock)) / n
	}
	storage.EmptyArenaPool()
	first := allocated(func() { s.run(t, paper.Q6(), mem, true).Release() })
	second := allocated(func() { s.run(t, paper.Q6(), mem, true).Release() })
	t.Logf("Q6 at M = %d: %.0f B/row on an empty pool, %.0f B/row recycled", mem, first, second)
	// The first run carves its row array and the rows its spills read back,
	// 16 B × (12 columns + L = 1) each, the ws_pad strings in them, its
	// header array and its tail vector, and allocates ~530 B/row. What the
	// second allocates is ~20 B/row: bucket lists, spill files and readers;
	// the sorts merge back into the arrays they read, and the strings land
	// in the byte slabs the first run handed back.
	const bound = 30
	if second > bound {
		t.Errorf("a recycled Q6 allocates %.0f B/row, want at most %d", second, bound)
	}
}

// TestArenaPoolHoldsOneFootprint pins the bound: statements of different
// row widths run one after another hand one list back and forth, and the
// list keeps one row-array slab — the widest's — not one per width: after
// Q6, Q9, Q6, Q9 the pool holds no more per list than Q9 alone leaves in
// it. In memory the row array is all a chain carves, and a slab per width
// would be dead weight; at the spilling budget the rows read back carve
// slabs of one size whatever the width.
func TestArenaPoolHoldsOneFootprint(t *testing.T) {
	s := newPaperChains()
	for _, budget := range []struct {
		name  string
		mem   int
		spill bool
	}{{"in memory", 64 << 20, false}, {"spilling", s.spillBudget(), true}} {
		t.Run(budget.name, func(t *testing.T) {
			storage.EmptyArenaPool()
			s.run(t, paper.Q9(), budget.mem, budget.spill).Release()
			footprint := storage.ArenaPoolBytes()
			storage.EmptyArenaPool()
			for _, specs := range [][]window.Spec{paper.Q6(), paper.Q9(), paper.Q6(), paper.Q9()} {
				s.run(t, specs, budget.mem, budget.spill).Release()
			}
			lists, held := storage.ArenaPoolLists(), storage.ArenaPoolBytes()
			t.Logf("Q9 alone leaves %d B; Q6, Q9, Q6, Q9 leave %d B in %d lists", footprint, held, lists)
			if footprint == 0 || held > footprint*int64(lists) {
				t.Errorf("the pool holds %d B in %d lists, want at most one Q9 footprint (%d B) per list", held, lists, footprint)
			}
		})
	}
}

// TestConcurrentStatementsShareThePool — four clients of one service run
// statements of different row widths at a budget that spills, every one
// taking slabs from the pool and handing them back as its cursor closes:
// each result is the sequence the same statement returns alone, and the
// pool ends with at most GOMAXPROCS lists. Run under -race.
func TestConcurrentStatementsShareThePool(t *testing.T) {
	const bs = 1024
	table := datagen.WebSales(datagen.WebSalesConfig{Rows: 2000, Seed: 11, PadBytes: 24})
	mem := max(int(0.85*math.Sqrt(float64(table.ByteSize()/bs)/2)), 3) * bs
	eng := windowdb.New(windowdb.Config{SortMemBytes: mem, BlockSize: bs, Parallelism: 1})
	eng.Register("web_sales", table)
	svc := service.New(eng, service.Config{Slots: 4})
	q := paperStatements(t, table)
	statements := []string{
		q[0].sql, // Q6
		q[3].sql, // Q9
		`SELECT ws_order_number, sum(ws_quantity) OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk, ws_order_number ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS s,
			lag(ws_pad) OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_time_sk, ws_order_number) AS l FROM web_sales`,
		`SELECT ws_order_number, min(ws_sales_price) OVER (PARTITION BY ws_bill_customer_sk ORDER BY ws_sold_date_sk, ws_order_number ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS m,
			rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_ship_date_sk) AS r,
			count(*) OVER (PARTITION BY ws_sold_date_sk) AS c FROM web_sales`,
	}
	// digest is the sequence of a statement's rows, encoded.
	digest := func(src string) (uint64, error) {
		rows, err := svc.QueryContext(context.Background(), src)
		if err != nil {
			return 0, err
		}
		defer rows.Close()
		h := fnv.New64a()
		var buf []byte
		for rows.Next() {
			buf = storage.AppendTuple(buf[:0], rows.Row())
			h.Write(buf)
		}
		return h.Sum64(), rows.Err()
	}
	want := make([]uint64, len(statements))
	for i, src := range statements {
		var err error
		if want[i], err = digest(src); err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
	}

	const clients, rounds = 4, 3
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds*len(statements); r++ {
				i := (c + r) % len(statements)
				got, err := digest(statements[i])
				if err != nil {
					t.Errorf("client %d statement %d: %v", c, i, err)
					return
				}
				if got != want[i] {
					t.Errorf("client %d statement %d: rows differ from the statement run alone", c, i)
				}
			}
		}()
	}
	wg.Wait()
	if lists, slots := storage.ArenaPoolLists(), runtime.GOMAXPROCS(0); lists > slots {
		t.Errorf("the pool holds %d lists, want at most GOMAXPROCS = %d", lists, slots)
	}
}

// f1Specs is F1's two functions over web_sales: a sum and an average of
// ws_quantity over ROWS frames of one partitioning and ordering.
func f1Specs() []window.Spec {
	frame := func(preceding int64, end window.Bound) *window.Frame {
		return &window.Frame{Mode: window.Rows, Start: window.Bound{Type: window.Preceding, Offset: preceding}, End: end}
	}
	spec := func(name string, kind window.Kind, f *window.Frame) window.Spec {
		return window.Spec{Name: name, Kind: kind, Arg: paper.Quantity, PK: attrs.MakeSet(paper.Item), PKOrder: attrs.AscSeq(paper.Item),
			OK: attrs.AscSeq(paper.Date, datagen.ColOrderNumber), Frame: f}
	}
	return []window.Spec{
		spec("s10", window.Sum, frame(10, window.Bound{Type: window.CurrentRow})),
		spec("a50", window.Avg, frame(50, window.Bound{Type: window.Following, Offset: 50})),
	}
}

// TestWarmFrameChainBytes pins the gain in the executor's own terms: an
// F1-shaped chain — one reorder, L = 0, two tail vectors — over 40 000 rows
// in memory, released as a cursor releases it, allocates less than 8 B per
// row once the pool is warm. Its sort buffer (or drained order) and its
// tails are the pool's, its evaluator's buffers are one partition long and
// made once; what is left is the chain's bookkeeping.
func TestWarmFrameChainBytes(t *testing.T) {
	table := datagen.WebSales(datagen.WebSalesConfig{Rows: 40_000, Seed: 20120827})
	entry := catalog.New().Register("web_sales", table)
	specs := f1Specs()
	cfg := exec.Config{MemoryBytes: 256 << 20, BlockSize: chainBlock, Distinct: entry.Distinct}
	plan, err := core.CSO(paper.WFs(specs), core.Unordered(), core.Options{Cost: entry.CostParams(cfg.MemoryBytes, chainBlock)})
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		chain, _, err := exec.RunChain(context.Background(), table, specs, plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if chain.Width != table.Schema.Len() || len(chain.Tail) != 2 {
			t.Fatalf("%s: %d derived columns in the rows and %d tails, want 0 and 2", plan, chain.Width-table.Schema.Len(), len(chain.Tail))
		}
		chain.Release()
	}
	storage.EmptyArenaPool()
	run()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(table.Len())
	t.Logf("%s over %d rows: %.2f B/row once the pool is warm", plan, table.Len(), perRow)
	if perRow >= 8 {
		t.Errorf("a warm F1-shaped chain allocates %.2f B/row, want under 8", perRow)
	}
}

// TestArenaPoolSteadyState pins the bound over the benchmark's mixes: after
// one round of Q1–Q9 at the chain_spill budget and F1–F6 in memory, one
// statement at a time, a second round leaves the pool holding exactly what
// the first left — every row, string, vector and header array a statement
// carves fits a slab the round before handed back. At Parallelism 3 a
// statement is its chain and up to three sub-chains per segment, each
// taking back the slab set it returned (exec's release order; a sub-chain's
// strings are copied into its parent's byte slabs, not handed over with the
// slabs they lie in, or every round would move slabs between roles and the
// pool would grow), and the pool holds at
// most GOMAXPROCS sets; a set's slabs are shaped by every request it has
// served since the empty pool, so the partitioned mix settles one round
// later — its second round still adds a slab or two — and a third round
// leaves it unchanged.
func TestArenaPoolSteadyState(t *testing.T) {
	gen := datagen.WebSalesConfig{Rows: 16_000, Seed: 20120827, PadBytes: 24}
	tables := map[string]*storage.Table{
		"web_sales":   datagen.WebSales(gen),
		"web_sales_s": datagen.WebSalesSorted(gen),
		"web_sales_g": datagen.WebSalesGrouped(gen),
	}
	s := &paperChains{table: tables["web_sales"]}
	drain := func(q windowdb.Queryer, name string) {
		rows, err := q.QueryContext(context.Background(), paper.Statements[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer rows.Close()
		for rows.Next() {
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, tc := range []struct{ parallelism, warmRounds int }{{1, 1}, {3, 2}} {
		spilling := windowdb.New(windowdb.Config{SortMemBytes: s.spillBudget(), BlockSize: chainBlock, Parallelism: tc.parallelism})
		inMemory := windowdb.New(windowdb.Config{SortMemBytes: 256 << 20, BlockSize: chainBlock, Parallelism: tc.parallelism})
		for name, table := range tables {
			spilling.Register(name, table)
			inMemory.Register(name, table)
		}
		round := func() {
			for _, name := range []string{"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9"} {
				drain(spilling, name)
			}
			for _, name := range []string{"F1", "F2", "F3", "F4", "F5", "F6"} {
				drain(inMemory, name)
			}
		}
		storage.EmptyArenaPool()
		for range tc.warmRounds {
			round()
		}
		warm := storage.ArenaPoolBytes()
		round()
		held, lists := storage.ArenaPoolBytes(), storage.ArenaPoolLists()
		t.Logf("Parallelism %d: the pool holds %d B after %d warm rounds, %d B in %d lists after the next", tc.parallelism, warm, tc.warmRounds, held, lists)
		if warm == 0 || held != warm {
			t.Errorf("Parallelism %d: a round after %d warm rounds moved the pool from %d B to %d B", tc.parallelism, tc.warmRounds, warm, held)
		}
		if slots := runtime.GOMAXPROCS(0); lists > slots {
			t.Errorf("Parallelism %d: the pool holds %d lists, want at most GOMAXPROCS = %d", tc.parallelism, lists, slots)
		}
	}
}
