package sql

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/storage"
	"repro/internal/stream"
)

// TestDistinctMergesSignedZeros — DISTINCT agrees with PARTITION BY on
// what one value is: +0.0 and −0.0 compare equal everywhere in the engine,
// so they are one partition and must be one DISTINCT row, the first
// occurrence's.
func TestDistinctMergesSignedZeros(t *testing.T) {
	table := storage.NewTable(storage.NewSchema(storage.Column{Name: "x", Type: storage.TypeFloat}))
	negZero := math.Copysign(0, -1)
	for _, x := range []float64{0, negZero, 0} {
		table.MustAppend(storage.Tuple{storage.Float(x)})
	}
	cat := catalog.New()
	cat.Register("t", table)
	r := &Runner{Catalog: cat, Exec: exec.Config{MemoryBytes: 1 << 20, BlockSize: 4096}}
	res, err := runQuery(r, `SELECT DISTINCT x, count(*) OVER (PARTITION BY x) AS n FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() != 1 {
		t.Fatalf("%d DISTINCT rows over {0, -0, 0}, want the one partition's one row:\n%s", res.Table.Len(), FormatTable(res.Table, 0))
	}
	if row := res.Table.Rows[0]; math.Signbit(row[0].Float64()) || row[1].Int64() != 3 {
		t.Fatalf("kept %v, want the first occurrence [0 3]", row)
	}
}

// signedZeroTable is 300 rows over 30 float keys, ten rows each; key zero's
// rows alternate between +0.0 and −0.0.
func signedZeroTable() *storage.Table {
	table := storage.NewTable(storage.NewSchema(
		storage.Column{Name: "x", Type: storage.TypeFloat}, storage.Column{Name: "pad", Type: storage.TypeString}))
	for i := 0; i < 300; i++ {
		x := float64(i % 30)
		if x == 0 && i/30%2 == 1 {
			x = math.Copysign(0, -1)
		}
		table.MustAppend(storage.Tuple{storage.Float(x), storage.StringVal(strings.Repeat("p", 48))})
	}
	return table
}

// TestHashPlacementKeepsSignedZerosTogether — wherever rows are placed by
// the hash of their partitioning key, +0.0 and −0.0 are one partition as
// they are to a Full Sort: Hashed Sort's buckets (7 of them, at an M the
// table does not fit) and a partitioned chain's partitions.
func TestHashPlacementKeepsSignedZerosTogether(t *testing.T) {
	cat := catalog.New()
	cat.Register("t", signedZeroTable())
	for name, r := range map[string]*Runner{
		"FS":       {Catalog: cat, Exec: exec.Config{MemoryBytes: 8 << 10, BlockSize: 1024}, DisableHS: true},
		"HS":       {Catalog: cat, Exec: exec.Config{MemoryBytes: 8 << 10, BlockSize: 1024, HSBuckets: 7}},
		"parallel": {Catalog: cat, Exec: exec.Config{MemoryBytes: 1 << 20, BlockSize: 1024, Parallelism: 3}},
	} {
		res, err := runQuery(r, `SELECT x, count(*) OVER (PARTITION BY x) AS n FROM t`)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Plan.Steps[0].Reorder.String(); (name == "HS") != (got == "HS") {
			t.Fatalf("%s: the chain reorders by %s", name, got)
		}
		if name == "parallel" && res.Parallelism != 3 {
			t.Fatalf("parallel: ran at degree %d", res.Parallelism)
		}
		for _, row := range res.Table.Rows {
			if row[1].Int64() != 10 {
				t.Fatalf("%s: x = %v counts %d rows in its partition, want 10", name, row[0], row[1].Int64())
			}
		}
	}
}

// TestFinalizeGenerated is the SQL layer's generated test: the
// regressions, then generated statements over adversarial tables, through
// every way a statement runs (checkStatement).
func TestFinalizeGenerated(t *testing.T) {
	hit := gen.Hits{}
	for _, c := range gen.Cases(150) {
		checkStatement(t, hit, c)
	}
	hit.Require(t, "none", "avoided", "partial", "full", "top-k", "spilled", "concatenated", "concat", "shared")
}

// TestSQLAgainstReference runs the paper's Q1–Q9 and F1–F6 as
// TestFinalizeGenerated runs a generated statement.
func TestSQLAgainstReference(t *testing.T) {
	for _, c := range gen.Corpus(300) {
		t.Run(c.Name, func(t *testing.T) { checkStatement(t, gen.Hits{}, c) })
	}
}

// checkStatement runs c's statement planned by CSO, BFO, ORCL and PSQL, at
// a spilling and an in-memory M, at Parallelism 1, 2 and 3, with rewound
// and reused memory poisoned: each plan drained through a cursor,
// materialized, over a rotated concatenation of its unfinalized rows (a
// coordinator's Input.Concat) and, when it is shareable, over its shared
// subplan. Each result is held by gen's comparer to the oracle, and
// finalize — every sort is stable — as a sequence to the finalize oracle
// over the same execution's unfinalized rows.
func checkStatement(t *testing.T, hit gen.Hits, c gen.Case) {
	t.Helper()
	defer storage.PoisonRewound()()
	defer stream.PoisonReused()()
	ctx, s := context.Background(), c.Stmt
	check := func(where string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s, %s: %v\n%s\n%s", c.Name, where, err, s.SQL(), FormatTable(c.Table, 0))
		}
	}
	projected, err := s.Project(c.Table)
	check("oracle", err)
	hit.Windows(s)
	cat := catalog.New()
	cat.Register(s.Table, c.Table)
	for _, scheme := range []Scheme{SchemeCSO, SchemeBFO, SchemeORCL, SchemePSQL} {
		for _, mem := range []int{4 << 10, 1 << 20} {
			for par := 1; par <= 3; par++ {
				where := fmt.Sprintf("%s M=%d P=%d ", scheme, mem, par)
				p, err := (&Runner{Catalog: cat, Exec: exec.Config{MemoryBytes: mem, BlockSize: 512, Parallelism: par}, Scheme: scheme}).Prepare(s.SQL())
				check(where+"prepare", err)
				base, err := openResult(ctx, p, Input{}, true)
				check(where+"shard-local", err)
				check(where+"shard-local", gen.SameMultiset(base.Table.Rows, projected))
				want := s.Finalize(base.Table.Rows)
				cur, err := p.Open(ctx, Input{}, false)
				check(where+"cursor", err)
				meta := cur.Meta()
				got := drainCursor(t, cur)
				check(where+"cursor, final sort "+meta.FinalSort, s.Check(got, projected))
				check(where+"cursor, final sort "+meta.FinalSort, gen.IdenticalSequence(got, want))
				whole, err := openResult(ctx, p, Input{}, false)
				check(where+"materialized", err)
				check(where+"materialized", gen.IdenticalSequence(whole.Table.Rows, want))
				if f := meta.Finalize; !p.ConcatStreams() && f.RowsOut != int64(len(want)) {
					check(where+"finalize", fmt.Errorf("%d rows out of %d in; %d left", f.RowsOut, f.RowsIn, len(want)))
				}
				m := meta.Exec
				for path, reached := range map[string]bool{meta.FinalSort: true, "top-k": meta.Finalize.TopK,
					"spilled": m != nil && m.TotalBlocks() > 0, "concatenated": m != nil && m.Concatenated} {
					if reached {
						hit[path]++
					}
				}
				if n := base.Table.Len(); par == 1 && n > 0 {
					// The coordinator's side: the same rows as shards would hand
					// them over, projected and in no particular order.
					concat := storage.NewTable(base.Table.Schema)
					concat.Rows = append(slices.Clone(base.Table.Rows[n/2:]), base.Table.Rows[:n/2]...)
					got, err := openResult(ctx, p, Input{Concat: concat}, false)
					check(where+"concat", err)
					check(where+"concat", s.Check(got.Table.Rows, projected))
					check(where+"concat", gen.IdenticalSequence(got.Table.Rows, s.Finalize(concat.Rows)))
					if got.FinalSort == "avoided" || got.FinalSort == "partial" {
						check(where+"concat", fmt.Errorf("final sort %s over a concatenation", got.FinalSort))
					}
					hit["concat"]++
				}
				if p.Shareable() {
					seg, err := p.RunSubplan(ctx)
					check(where+"subplan", err)
					got, err := openResult(ctx, p, Input{Shared: seg}, false)
					check(where+"shared", err)
					check(where+"shared", s.Check(got.Table.Rows, projected))
					hit["shared"]++
				}
			}
		}
	}
}

// finalizeFixture runs stmt's chain over n web_sales rows once and returns
// what finalize is handed: the prepared statement, the chain, and the
// chain's metadata to copy per call.
func finalizeFixture(tb testing.TB, n int, stmt string) (*Prepared, *exec.Chain, Meta) {
	tb.Helper()
	cat := catalog.New()
	cat.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: n, Seed: 20120827}))
	p, err := (&Runner{Catalog: cat, Exec: exec.Config{MemoryBytes: 256 << 20}}).Prepare(stmt)
	if err != nil {
		tb.Fatal(err)
	}
	var meta Meta
	chain, err := p.runChain(context.Background(), p.entry.Table(), &meta)
	if err != nil {
		tb.Fatal(err)
	}
	return p, chain, meta
}

const (
	finalizeWindow = `SELECT ws_item_sk, ws_quantity, ws_order_number, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales`
	// One statement per finalize path: a bounded selection, a partial sort
	// cut short, a sort of everything, a dedup to 100 groups.
	finalizeTopK    = finalizeWindow + ` ORDER BY ws_order_number LIMIT 1000`
	finalizePartial = finalizeWindow + ` ORDER BY ws_item_sk, ws_order_number LIMIT 1000`
	finalizeFull    = finalizeWindow + ` ORDER BY ws_order_number`
	finalizeDedup   = `SELECT DISTINCT ws_quantity, count(*) OVER (PARTITION BY ws_quantity) AS c FROM web_sales`
)

// TestFinalizeBytesPerRow pins what finalize allocates over 20 000 chain
// rows: a top-k selection holds k positions and never lists the input, a
// DISTINCT pays per kept row and nothing per input row, and LIMIT 0 is
// decided before anything is built.
func TestFinalizeBytesPerRow(t *testing.T) {
	const n = 20_000
	bytesPerCall := func(rows int, stmt, finalSort string, rowsOut int64) float64 {
		p, chain, meta := finalizeFixture(t, rows, stmt)
		w := new(cursorWork) // a cursor's, reused as the free list would
		run := func() {
			result := meta
			p.finalize(chain, p.pick, p.chainOrder, &result, w)
			if result.FinalSort != finalSort || result.Finalize.RowsOut != rowsOut {
				t.Fatalf("%s: final sort %s, %d rows out; want %s, %d", stmt, result.FinalSort, result.Finalize.RowsOut, finalSort, rowsOut)
			}
		}
		run()
		const reps = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / reps
	}
	if per := bytesPerCall(n, finalizeTopK, "full", 1000) / n; per > 16 {
		t.Errorf("ORDER BY <unique> LIMIT 1000 allocates %.1f B per input row in finalize, want at most 16", per)
	} else {
		t.Logf("top-k: %.2f B per input row", per)
	}
	small, large := bytesPerCall(n/4, finalizeDedup, "none", 100), bytesPerCall(n, finalizeDedup, "none", 100)
	if grew := large - small; grew > 1024 {
		t.Errorf("DISTINCT to 100 groups allocates %.0f B over %d rows and %.0f B over %d: it pays per input row", small, n/4, large, n)
	} else {
		t.Logf("distinct: %.0f B a call at either size", large)
	}
	if b := bytesPerCall(n, finalizeTopK[:strings.LastIndex(finalizeTopK, " ")]+" 0", "full", 0); b != 0 {
		t.Errorf("LIMIT 0 allocates %.0f B in finalize, want nothing", b)
	}
}

// BenchmarkFinalize is the finalize phase alone over 20 000 chain rows, one
// sub-benchmark per path; B/op is what the phase costs a statement on top
// of its chain.
func BenchmarkFinalize(b *testing.B) {
	for _, bc := range []struct{ name, stmt string }{
		{"topk", finalizeTopK}, {"partial_limit", finalizePartial}, {"full", finalizeFull}, {"distinct", finalizeDedup},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p, chain, meta := finalizeFixture(b, 20_000, bc.stmt)
			w := new(cursorWork)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				result := meta
				if order := p.finalize(chain, p.pick, p.chainOrder, &result, w); order == nil {
					b.Fatal("finalize chose no rows")
				}
			}
		})
	}
}
