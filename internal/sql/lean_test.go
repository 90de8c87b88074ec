package sql

import (
	"context"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/pagestore"
	"repro/internal/paper"
	"repro/internal/storage"
	"repro/internal/stream"
)

// leanStatements is every statement shape the lean chain result has to
// serve: the paper's Q1–Q9 and the benchmark's F1–F6.
var leanStatements = paper.Statements

// leanRunner registers the three web_sales variants at the given size
// under the given reorder budget.
func leanRunner(rows, memBytes int) *Runner {
	gen := datagen.WebSalesConfig{Rows: rows, Seed: 7, PadBytes: 16}
	cat := catalog.New()
	cat.Register("web_sales", datagen.WebSales(gen))
	cat.Register("web_sales_s", datagen.WebSalesSorted(gen))
	cat.Register("web_sales_g", datagen.WebSalesGrouped(gen))
	return &Runner{Catalog: cat, Exec: exec.Config{MemoryBytes: memBytes, BlockSize: 4096}}
}

// chainTable materializes a chain as whole tuples: each row's values
// followed by its tail values.
func chainTable(c *exec.Chain) *storage.Table {
	t := storage.NewTable(c.Schema)
	w := c.Schema.Len()
	t.Rows = make([]storage.Tuple, c.Len())
	for i := range t.Rows {
		t.Rows[i] = make(storage.Tuple, w)
		for k := range w {
			t.Rows[i][k] = c.At(i, k)
		}
	}
	return t
}

// TestLeanMatchesRunAndReference — differential: on Q1–Q9 under a budget
// that spills and F1–F6 in memory, the chain result the SQL layer projects
// from equals exec.RunChain's over the same input row for row (the values
// themselves are TestSQLAgainstReference's), and the cursor over the lean
// result streams exactly ExecuteContext's rows.
func TestLeanMatchesRunAndReference(t *testing.T) {
	ctx := context.Background()
	spilling, inMemory := leanRunner(1200, 16<<10), leanRunner(1200, 64<<20)
	for name, src := range leanStatements {
		t.Run(name, func(t *testing.T) {
			r := inMemory
			if name[0] == 'Q' {
				r = spilling
			}
			p, err := r.Prepare(src)
			if err != nil {
				t.Fatal(err)
			}
			input, err := p.filterWhere(p.entry.Table(), nil)
			if err != nil {
				t.Fatal(err)
			}
			chain, metrics, _, err := p.runPlan(ctx, nil, input, p.plan)
			if err != nil {
				t.Fatal(err)
			}
			if name[0] == 'Q' && name != "Q4" && name != "Q5" && metrics.TotalBlocks() == 0 {
				t.Fatal("the chain did not spill")
			}
			cfg := p.cfg
			cfg.Distinct = p.entry.Distinct
			ran, _, err := exec.RunChain(ctx, input, p.specs, p.plan, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRows(t, name+" lean vs RunChain", chainTable(ran), chainTable(chain))

			want, err := p.ExecuteContext(ctx)
			if err != nil {
				t.Fatal(err)
			}
			cur, err := p.Open(ctx, Input{}, false)
			if err != nil {
				t.Fatal(err)
			}
			got := storage.NewTable(want.Table.Schema)
			got.Rows = drainCursor(t, cur)
			assertSameRows(t, name+" cursor vs execute", want.Table, got)
		})
	}
}

// TestLeanSharedSuffix — a shared-suffix execution evaluates every
// function into tail vectors over the segment's own rows: nothing is
// copied.
func TestLeanSharedSuffix(t *testing.T) {
	ctx := context.Background()
	r := leanRunner(1200, 64<<20)
	for _, name := range []string{"Q1", "Q3", "F1", "F3"} {
		p, err := r.Prepare(leanStatements[name])
		if err != nil {
			t.Fatal(err)
		}
		if !p.Shareable() {
			t.Fatalf("%s is not shareable: %s", name, p.Plan())
		}
		seg, err := p.RunSubplan(ctx)
		if err != nil {
			t.Fatal(err)
		}
		chain, err := p.runSuffix(ctx, seg, true, new(Meta))
		if err != nil {
			t.Fatal(err)
		}
		if chain.Width != seg.Table.Schema.Len() || len(chain.Tail) != len(p.specs) {
			t.Fatalf("%s: suffix chain width %d with %d tail vectors, want %d and %d", name, chain.Width, len(chain.Tail), seg.Table.Schema.Len(), len(p.specs))
		}
		for i := range chain.Rows {
			if &chain.Rows[i][0] != &seg.Table.Rows[i][0] {
				t.Fatalf("%s: suffix row %d is not the segment's own row", name, i)
			}
		}
	}
}

// roomyCopy rebuilds t with every row given spare capacity past its
// length: the worst case for shared rows, because an Extend on such a row
// writes in place instead of copying.
func roomyCopy(t *storage.Table) *storage.Table {
	out := storage.NewTable(t.Schema)
	out.Rows = make([]storage.Tuple, t.Len())
	for i, row := range t.Rows {
		out.Rows[i] = append(make(storage.Tuple, 0, len(row)+2), row...)
	}
	return out
}

// rowShape records what must not change about shared rows: the content
// encoding in row order, and every row's length, capacity and spare slots.
func rowShape(t *testing.T, rows []storage.Tuple) (content string, lens, caps []int) {
	t.Helper()
	var enc []byte
	for _, row := range rows {
		enc = storage.AppendTuple(enc, row)
		lens, caps = append(lens, len(row)), append(caps, cap(row))
		for _, v := range row[len(row):cap(row)] {
			if !v.IsNull() {
				t.Fatalf("a shared row's spare slot holds %s", v)
			}
		}
	}
	return string(enc), lens, caps
}

// TestConcurrentStatementsLeaveSharedRowsAlone — statements with different
// windows run at once over one registered table and over one shared
// segment, whose rows all have spare capacity. Nothing may write to them:
// -race sees any attempt, and afterwards the content, every row's
// len/cap and every spare slot are what they were.
func TestConcurrentStatementsLeaveSharedRowsAlone(t *testing.T) {
	ctx := context.Background()
	base := roomyCopy(datagen.WebSales(datagen.WebSalesConfig{Rows: 1500, Seed: 5, PadBytes: 16}))
	cat := catalog.New()
	cat.Register("web_sales", base)
	r := &Runner{Catalog: cat, Exec: exec.Config{MemoryBytes: 64 << 20, BlockSize: 4096}}

	// One segment, sorted finely enough to serve every shareMix statement.
	finest, err := r.Prepare(shareMix[0])
	if err != nil {
		t.Fatal(err)
	}
	seg, err := finest.RunSubplan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	seg.Table = roomyCopy(seg.Table)

	baseHash, baseLens, baseCaps := rowShape(t, base.Rows)
	segHash, segLens, segCaps := rowShape(t, seg.Table.Rows)

	private := []string{leanStatements["Q1"], leanStatements["Q6"], leanStatements["Q9"], leanStatements["F1"], leanStatements["F4"], leanStatements["F6"]}
	var wg sync.WaitGroup
	drain := func(cur *Cursor, err error) {
		defer wg.Done()
		if err != nil {
			t.Error(err)
			return
		}
		for {
			if _, err := cur.NextBatch(); err != nil {
				if err != io.EOF {
					t.Error(err)
				}
				return
			}
		}
	}
	for round := 0; round < 3; round++ {
		for _, src := range private {
			p, err := r.Prepare(src)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() { drain(p.Open(ctx, Input{}, false)) }()
		}
		for _, src := range shareMix {
			p, err := r.Prepare(src)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() { drain(p.Open(ctx, Input{Shared: seg}, false)) }()
		}
	}
	wg.Wait()

	check := func(what string, rows []storage.Tuple, hash string, lens, caps []int) {
		gotHash, gotLens, gotCaps := rowShape(t, rows)
		if gotHash != hash {
			t.Errorf("%s: content changed", what)
		}
		for i := range rows {
			if gotLens[i] != lens[i] || gotCaps[i] != caps[i] {
				t.Fatalf("%s: row %d is len %d cap %d, was len %d cap %d", what, i, gotLens[i], gotCaps[i], lens[i], caps[i])
			}
		}
	}
	check("table", base.Rows, baseHash, baseLens, baseCaps)
	check("shared segment", seg.Table.Rows, segHash, segLens, segCaps)
}

// TestStatementAllocationsDoNotScaleWithRows — a statement's heap objects
// are a function of its steps and of log(rows) (buffers that double), not
// of its rows or its partitions: quadrupling the table — and with it the
// partition count — may not come near quadrupling the objects. An
// F1-shaped statement (framed aggregates, one reorder, lazily projected)
// and a Q7-shaped one (five functions, several reorders, rows carried
// through them) run in memory through Prepared and a drained cursor.
func TestStatementAllocationsDoNotScaleWithRows(t *testing.T) {
	ctx := context.Background()
	run := func(rows int, src string) float64 {
		// ItemDistinct scales the partition count with the table.
		cat := catalog.New()
		cat.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: rows, Seed: 7, ItemDistinct: rows / 50, PadBytes: 16}))
		r := &Runner{Catalog: cat, Exec: exec.Config{MemoryBytes: 256 << 20, BlockSize: 4096}}
		p, err := r.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			cur, err := p.Open(ctx, Input{}, false)
			if err != nil {
				t.Fatal(err)
			}
			for {
				if _, err := cur.NextBatch(); err != nil {
					break
				}
			}
		})
	}
	const n = 4000
	for _, name := range []string{"F1", "Q7"} {
		small, large := run(n, leanStatements[name]), run(4*n, leanStatements[name])
		t.Logf("%s: %.0f objects at %d rows, %.0f at %d", name, small, n, large, 4*n)
		if small > n/4 {
			t.Errorf("%s: %.0f objects for %d rows: something allocates per row or per partition", name, small, n)
		}
		if large > 2*small {
			t.Errorf("%s: %.0f objects at %d rows but %.0f at %d: growth is not logarithmic", name, small, n, large, 4*n)
		}
	}
}

// TestSpillingStatementBytesAreBounded — what a spilling statement
// allocates is a small multiple of its table, not a multiple that grows
// with the number of steps that spill: Q9 (eight functions, seven
// reorders) and Q1 (one) on the benchmark's 16 000-row table at its
// chain_spill budget, M = floor(0.85*sqrt(B/2)) blocks, prepared and
// drained through a cursor. The multiples sit between what the
// decode-everything-fresh executor measured (34.4 and 8.5 table sizes) and
// what the recycling one does (15.5 and 2.9; 18.0 and 3.7 under -race,
// whose sync.Pool drops a quarter of what it is handed). And the block
// pool outlives the statement: the second execution allocates fewer pages
// than the first.
func TestSpillingStatementBytesAreBounded(t *testing.T) {
	const bs = 8192
	table := datagen.WebSales(datagen.WebSalesConfig{Rows: 16_000, Seed: 7, PadBytes: 96})
	mem := max(int(0.85*math.Sqrt(float64(table.ByteSize()/bs)/2)), 3) * bs
	cat := catalog.New()
	cat.Register("web_sales", table)
	r := &Runner{Catalog: cat, Exec: exec.Config{MemoryBytes: mem, BlockSize: bs}}
	ctx := context.Background()
	run := func(p *Prepared) {
		cur, err := p.Open(ctx, Input{}, false)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := cur.NextBatch(); err != nil {
				break
			}
		}
		if m := cur.Meta().Exec; m.TotalBlocks() == 0 {
			t.Fatal("the statement did not spill")
		}
	}
	pagesAllocated := func(f func()) int64 {
		before, _ := pagestore.PoolCounters()
		f()
		after, _ := pagestore.PoolCounters()
		return after - before
	}

	for i, tc := range []struct {
		name   string
		tables float64 // bound on bytes allocated per statement, in table sizes
	}{{"Q9", 22}, {"Q1", 5}} {
		p, err := r.Prepare(leanStatements[tc.name])
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			// Two collections empty a sync.Pool: the block pool starts
			// empty whatever ran before, holds the first execution's
			// pages after it, and no collection may run before the second.
			runtime.GC()
			runtime.GC()
			gc := debug.SetGCPercent(-1)
			first := pagesAllocated(func() { run(p) })
			second := pagesAllocated(func() { run(p) })
			debug.SetGCPercent(gc)
			t.Logf("%s: %d pages allocated by the first execution, %d by the second", tc.name, first, second)
			if second >= first {
				t.Errorf("%s: the second execution allocated %d pages, the first %d: the pool did not outlive the statement", tc.name, second, first)
			}
		}

		const reps = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			run(p)
		}
		runtime.ReadMemStats(&after)
		per := float64(after.TotalAlloc-before.TotalAlloc) / reps / float64(table.ByteSize())
		t.Logf("%s: %.2f table sizes per statement (%d bytes each)", tc.name, per, table.ByteSize())
		if per > tc.tables {
			t.Errorf("%s allocates %.2f table sizes per statement, want at most %v", tc.name, per, tc.tables)
		}
	}
}

// TestCursorGathersNoTuples — the lazy cursor's batches are the chain's
// columns gathered in place: each holds stream.BatchRows of its columns
// but the last, a LIMIT cuts the last one short without touching a row past
// it, and what the cursor allocates for the whole drain is its one batch's
// vectors — a constant, whatever the row count.
func TestCursorGathersNoTuples(t *testing.T) {
	r := testRunner(t)
	batch := stream.BatchRows(3)
	r.Catalog.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 2*batch + 100, Seed: 1, PadBytes: 8}))
	ctx := context.Background()
	const src = `SELECT ws_item_sk, ws_order_number, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales`
	p, err := r.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.ExecuteContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := p.Open(ctx, Input{}, false)
	if err != nil {
		t.Fatal(err)
	}
	at := 0
	for {
		b, err := cur.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if b.Len() == 0 || b.Len() > batch {
			t.Fatalf("batch of %d rows, want 1..%d", b.Len(), batch)
		}
		if left := want.Table.Len() - at; b.Len() != min(left, batch) {
			t.Fatalf("batch of %d rows with %d left: only the last batch may be short", b.Len(), left)
		}
		for i, row := range b.Tuples() {
			for c, v := range row {
				if !storage.Identical(v, want.Table.Rows[at+i][c]) {
					t.Fatalf("row %d col %d = %s, execute has %s", at+i, c, v, want.Table.Rows[at+i][c])
				}
			}
		}
		at += b.Len()
	}
	if at != want.Table.Len() {
		t.Fatalf("%d rows in batches, execute has %d", at, want.Table.Len())
	}

	limited, err := r.Prepare(src + ` LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	cur, err = limited.Open(ctx, Input{}, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cur.NextBatch()
	if err != nil || b.Len() != 3 {
		t.Fatalf("LIMIT 3: first batch %v rows, err %v", b.Len(), err)
	}
	if ints := b.Cols()[0].Ints; cap(ints) != 3 {
		t.Fatalf("LIMIT 3 sized a vector for %d rows", cap(ints))
	}
	if _, err := cur.NextBatch(); err != io.EOF {
		t.Fatalf("LIMIT 3: second pull = %v, want io.EOF", err)
	}
}
