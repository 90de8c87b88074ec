package windowdb

import (
	"context"
	"errors"
	"math"
	"regexp"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/cache"
	"repro/internal/datagen"
	"repro/internal/paper"
	"repro/internal/sql"
)

// raceEnabled is set under -race, whose instrumentation allocates.
var raceEnabled bool

// TestPlanCacheHitAllocations: a warm plan-cache hit renders its key into
// a reused buffer and looks it up without converting it, so it allocates
// nothing, whatever the statement's length.
func TestPlanCacheHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	eng := testEngine(SchemeCSO)
	ctx := context.Background()
	for _, id := range []string{"Q1", "Q9"} {
		src := paper.Statements[id]
		if _, disp, err := eng.Resolve(ctx, src); err != nil || disp != cache.Miss {
			t.Fatalf("%s: cold lookup: %q, %v", id, disp, err)
		}
		if got := testing.AllocsPerRun(100, func() {
			if _, disp, err := eng.Resolve(ctx, src); err != nil || disp != cache.Hit {
				t.Fatalf("%s: warm lookup: %q, %v", id, disp, err)
			}
		}); got > 0 {
			t.Errorf("%s: a warm plan-cache hit allocates %v times, want 0", id, got)
		}
	}
}

// TestWarmSpillingQueryAllocations pins what a warm Engine.QueryContext of
// Q6 allocates at a spilling M, drained to its last row: a plan-cache hit,
// and a chain whose reorders, spill files, arena and evaluation workspace
// all come back from free lists. The GC is held off while it counts: it
// would empty the block pool.
func TestWarmSpillingQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const budget = 38
	eng := New(Config{SortMemBytes: 48 << 10, BlockSize: 4096, Parallelism: 1})
	eng.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 4000, Seed: 3}))
	ctx := context.Background()
	src := paper.Statements["Q6"]
	var m *QueryMetrics
	run := func() {
		rows, err := eng.QueryContext(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		m = rows.Metrics()
	}
	run()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := testing.AllocsPerRun(10, run)
	if !m.CacheHit || m.BlocksWritten == 0 {
		t.Fatalf("warm Q6: cache hit %v, %d blocks written: want a hit that spills", m.CacheHit, m.BlocksWritten)
	}
	t.Logf("warm spilling Q6: %v allocations, %d blocks written", got, m.BlocksWritten)
	if got > budget {
		t.Errorf("a warm spilling Q6 allocates %v times, want at most %d", got, budget)
	}
}

// TestWarmFramesQueryBytes: what a warm in-memory statement allocates does
// not grow with its table. F4 (WHERE, then ORDER BY ... LIMIT) and F6
// (DISTINCT) at 4 000 and 40 000 rows, each drained through
// Engine.QueryContext after a warm-up at its size: the WHERE's mask, the
// DISTINCT key table, the top-k heap, the chain's arena and the cursor's
// batch all come back from free lists, so the bytes a statement allocates
// are its shape's — spans, metrics, cursor — and the same at either size.
func TestWarmFramesQueryBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	ctx := context.Background()
	bytesPerStatement := func(rows int, src string) float64 {
		eng := New(Config{SortMemBytes: 256 << 20, BlockSize: 8192, Parallelism: 1})
		eng.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: rows, Seed: 20120827, ItemDistinct: max(rows/353, 16)}))
		run := func() {
			r, err := eng.QueryContext(ctx, src)
			if err != nil {
				t.Fatal(err)
			}
			for r.Next() {
			}
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
		}
		run()
		run()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		// The fewest bytes of five statements: the counter is the process's,
		// and what another test left running allocates meanwhile is not the
		// statement's.
		least := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return float64(least)
	}
	for _, id := range []string{"F4", "F6"} {
		src := paper.Statements[id]
		small, large := bytesPerStatement(4_000, src), bytesPerStatement(40_000, src)
		t.Logf("warm %s: %.0f B a statement at 4 000 rows, %.0f B at 40 000", id, small, large)
		if large > small+256 {
			t.Errorf("warm %s allocates %.0f B at 4 000 rows and %.0f B at 40 000: it pays per row", id, small, large)
		}
	}
}

// TestUnlexableTextFailsAlike: text the lexer rejects skips the plan cache
// and fails in Prepare, every time and with the same parse error however it
// is spaced — its failure never depends on a cache key it could not have.
func TestUnlexableTextFailsAlike(t *testing.T) {
	eng := testEngine(SchemeCSO)
	ctx := context.Background()
	offset := regexp.MustCompile(`at offset \d+: `)
	for _, spellings := range [][]string{
		{"SELECT $ FROM emptab", "SELECT  $\n FROM emptab", "select $ from emptab -- x"},
		{"SELECT 'a  b FROM emptab", "SELECT\t'a  b FROM emptab"},
		{`SELECT "" FROM emptab`, `SELECT   "" FROM emptab`},
	} {
		want := ""
		for _, src := range spellings {
			for range 2 {
				_, err := eng.QueryContext(ctx, src)
				if !errors.Is(err, sql.ErrParse) {
					t.Fatalf("%q: %v, want a parse error", src, err)
				}
				if msg := offset.ReplaceAllString(err.Error(), ""); want == "" {
					want = msg
				} else if msg != want {
					t.Errorf("%q fails with %q, another spelling with %q", src, msg, want)
				}
			}
		}
	}
	if st := eng.PlanCacheStats(); st.Hits+st.Misses+st.Attaches != 0 || st.Size != 0 {
		t.Errorf("unlexable text went through the plan cache: %+v", st)
	}
}

// BenchmarkPlanCache is what a statement's planning costs with the cache
// and without it: a warm Resolve (one lex into the key buffer and a map
// lookup) beside Prepare (parse, bind and plan), for a one-function and a
// five-function statement.
func BenchmarkPlanCache(b *testing.B) {
	eng := testEngine(SchemeCSO)
	ctx := context.Background()
	for _, id := range []string{"Q1", "Q9"} {
		src := paper.Statements[id]
		b.Run(id+"/hit", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.Resolve(ctx, src); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(id+"/prepare", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Prepare(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
