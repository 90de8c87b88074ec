package windowdb

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/paper"
	"repro/internal/sql"
	"repro/internal/storage"
)

func testEngine(scheme sql.Scheme) *Engine {
	eng := New(Config{Scheme: scheme, SortMemBytes: 1 << 20, BlockSize: 4096})
	eng.Register("emptab", datagen.Emptab())
	eng.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 2000, Seed: 3, PadBytes: 16}))
	return eng
}

func TestEngineQuery(t *testing.T) {
	eng := testEngine(SchemeCSO)
	res, err := eng.Query(`SELECT empnum, rank() OVER (ORDER BY salary DESC NULLS LAST) AS r FROM emptab ORDER BY r, empnum`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() != 10 {
		t.Fatalf("rows = %d", res.Table.Len())
	}
	if res.Table.Rows[0][0].Int64() != 2 {
		t.Errorf("top earner should be empnum 2, got %s", res.Table.Rows[0][0])
	}
}

// q6Columns is paper Q6 with the base columns beside its two ranks.
var q6Columns = "SELECT *, " + strings.TrimPrefix(paper.Statements["Q6"], "SELECT ")

// TestEngineWindowColumns — Q6's two window functions extend every row
// with two derived columns, one chain step each.
func TestEngineWindowColumns(t *testing.T) {
	eng := testEngine(SchemeCSO)
	res, err := Collect(context.Background(), eng, q6Columns)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Schema.Len() != datagen.WebSalesSchema().Len()+2 {
		t.Errorf("expected two derived columns")
	}
	if res.Exec == nil || len(res.Exec.Steps) != 2 {
		t.Errorf("metrics missing")
	}
}

func TestEnginePlanSchemes(t *testing.T) {
	for _, scheme := range []sql.Scheme{SchemeCSO, SchemeBFO, SchemeORCL, SchemePSQL} {
		eng := testEngine(scheme)
		p, err := eng.Prepare(paper.Statements["Q6"])
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if plan := p.Plan(); plan.Scheme != string(scheme) {
			t.Errorf("plan scheme %q != %q", plan.Scheme, scheme)
		}
	}
	// Ablation variants through the facade.
	eng := New(Config{DisableSS: true, SortMemBytes: 1 << 20})
	eng.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 500, Seed: 1, PadBytes: 8}))
	p, err := eng.Prepare(paper.Statements["Q6"])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ss := p.Plan().ReorderCounts(); ss != 0 {
		t.Errorf("DisableSS plan still uses SS: %s", p.Plan())
	}
}

// TestEngineParallel — Section 3.5's single-function form: one window
// function at Parallelism 3 runs partitioned on its PARTITION BY.
func TestEngineParallel(t *testing.T) {
	eng := New(Config{SortMemBytes: 1 << 20, BlockSize: 4096, Parallelism: 3})
	eng.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 2000, Seed: 3}))
	res, err := Collect(context.Background(), eng, `SELECT ws_order_number, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() != 2000 || res.Exec.PartitionedSteps != 1 {
		t.Errorf("rows = %d, %d steps partitioned", res.Table.Len(), res.Exec.PartitionedSteps)
	}
}

// TestEngineParallelism — Config.Parallelism routes every statement
// through the parallel chain executor with results identical to the
// sequential engine's.
func TestEngineParallelism(t *testing.T) {
	seq := testEngine(SchemeCSO)
	par := New(Config{Scheme: SchemeCSO, SortMemBytes: 1 << 20, BlockSize: 4096, Parallelism: 4})
	par.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 2000, Seed: 3, PadBytes: 16}))

	ctx := context.Background()
	seqOut, err := Collect(ctx, seq, q6Columns)
	if err != nil {
		t.Fatal(err)
	}
	parOut, err := Collect(ctx, par, q6Columns)
	if err != nil {
		t.Fatal(err)
	}
	if parOut.Exec == nil || len(parOut.Exec.Steps) != 2 {
		t.Fatalf("parallel metrics missing per-step entries")
	}
	if parOut.Table.Len() != seqOut.Table.Len() {
		t.Fatalf("parallel rows = %d, sequential %d", parOut.Table.Len(), seqOut.Table.Len())
	}
	byTag := func(tb *storage.Table) map[int64]string {
		m := make(map[int64]string, tb.Len())
		for _, r := range tb.Rows {
			m[r[datagen.ColOrderNumber].Int64()] = string(storage.AppendTuple(nil, r))
		}
		return m
	}
	want, got := byTag(seqOut.Table), byTag(parOut.Table)
	for tag, row := range want {
		if got[tag] != row {
			t.Fatalf("row %d differs between sequential and parallel engines", tag)
		}
	}

	// ORDER BY keeps results deterministic.
	const q = `SELECT ws_order_number, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r
		FROM web_sales ORDER BY ws_order_number`
	seqRes, err := seq.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := par.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if parRes.Parallelism != 4 {
		t.Errorf("Result.Parallelism = %d, want 4", parRes.Parallelism)
	}
	for i := range seqRes.Table.Rows {
		a := string(storage.AppendTuple(nil, seqRes.Table.Rows[i]))
		b := string(storage.AppendTuple(nil, parRes.Table.Rows[i]))
		if a != b {
			t.Fatalf("query row %d differs between engines", i)
		}
	}
}

func TestEngineErrors(t *testing.T) {
	eng := testEngine(SchemeCSO)
	if _, err := eng.Query("SELECT * FROM missing"); err == nil {
		t.Errorf("missing table should fail")
	}
	if _, err := eng.Table("missing"); err == nil {
		t.Errorf("missing table lookup should fail")
	}
	if _, err := eng.Prepare(strings.Replace(paper.Statements["Q6"], "web_sales", "missing", 1)); err == nil {
		t.Errorf("plan over missing table should fail")
	}
	bad := New(Config{Scheme: "NOPE"})
	bad.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 10, Seed: 1, PadBytes: 8}))
	if _, err := bad.Prepare(paper.Statements["Q6"]); err == nil {
		t.Errorf("unknown scheme should fail")
	}
}

func TestTablesListing(t *testing.T) {
	eng := testEngine(SchemeCSO)
	names := eng.Tables()
	if len(names) != 2 || names[0] != "emptab" || names[1] != "web_sales" {
		t.Errorf("Tables() = %v", names)
	}
}

// TestEngineConcurrentRegisterQuery exercises the documented concurrency
// contract: unrestricted QueryContext and Collect from many goroutines
// concurrent with Register on the same engine. Under -race this is the
// engine's thread-safety proof.
func TestEngineConcurrentRegisterQuery(t *testing.T) {
	eng := testEngine(SchemeCSO)
	const q = `SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales`
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				rows, err := eng.QueryContext(ctx, q)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				rows.Close()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			// Replace web_sales (same schema, fresh entry) while queries run,
			// and keep the statistics caches busy on the side.
			eng.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 1000 + 100*i, Seed: int64(i), PadBytes: 16}))
			if _, err := Collect(ctx, eng, q); err != nil {
				t.Errorf("collect: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if gen := eng.Generation(); gen < 10 {
		t.Fatalf("generation %d, want >= 10 (2 initial + 8 replacements)", gen)
	}
}

// TestEngineQueryContextCancel: a cancelled context stops the chain at the
// next step boundary.
func TestEngineQueryContextCancel(t *testing.T) {
	eng := testEngine(SchemeCSO)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.QueryContext(ctx, `SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEnginePrepareReuse: one prepared statement executes repeatedly (and
// concurrently) with identical results, skipping re-planning.
func TestEnginePrepareReuse(t *testing.T) {
	eng := testEngine(SchemeCSO)
	p, err := eng.Prepare(`SELECT empnum, rank() OVER (ORDER BY salary DESC NULLS LAST) AS r FROM emptab ORDER BY r, empnum`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Generation() != eng.Generation() {
		t.Fatalf("prepared under generation %d, engine at %d", p.Generation(), eng.Generation())
	}
	want, err := p.ExecuteContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := p.ExecuteContext(context.Background())
				if err != nil {
					t.Errorf("execute: %v", err)
					return
				}
				if res.Table.Len() != want.Table.Len() {
					t.Errorf("rows = %d, want %d", res.Table.Len(), want.Table.Len())
					return
				}
				for ri, row := range res.Table.Rows {
					for ci := range row {
						if storage.Compare(row[ci], want.Table.Rows[ri][ci]) != 0 {
							t.Errorf("row %d col %d differs across executions", ri, ci)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestExplainAnalyzeStepComparisonsSumToQueryMetrics — EXPLAIN ANALYZE's
// per-step cmp= figures and QueryMetrics.Comparisons read one counter, the
// one every sort's comparisons go through: over an in-memory, a spilling
// and a parallel chain the steps add up to the total, and the rendered
// lines say the same. The final ORDER BY's comparisons are in neither.
func TestExplainAnalyzeStepComparisonsSumToQueryMetrics(t *testing.T) {
	const q = `SELECT ws_order_number,
		       rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a,
		       rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_time_sk) AS b,
		       rank() OVER (ORDER BY ws_quantity) AS c
		FROM web_sales ORDER BY ws_order_number`
	cmpField := regexp.MustCompile(`\bcmp=(\d+)\b`)
	for name, cfg := range map[string]Config{
		"in memory": {SortMemBytes: 1 << 24, BlockSize: 4096},
		"spilling":  {SortMemBytes: 16 << 10, BlockSize: 1024},
		"parallel":  {SortMemBytes: 64 << 10, BlockSize: 1024, Parallelism: 3},
	} {
		eng := New(cfg)
		eng.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 2000, Seed: 3, PadBytes: 16}))
		rows, err := eng.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		m := rows.Metrics()
		if m == nil || m.Exec == nil || len(m.Exec.Steps) != 3 || m.Comparisons == 0 {
			t.Fatalf("%s: metrics %+v", name, m)
		}
		var steps int64
		for _, st := range m.Exec.Steps {
			steps += st.Comparisons
		}
		var rendered int64
		for _, line := range RenderAnalyze(m) {
			if f := cmpField.FindStringSubmatch(line); f != nil {
				n, _ := strconv.ParseInt(f[1], 10, 64)
				rendered += n
			}
		}
		if steps != m.Comparisons || rendered != m.Comparisons {
			t.Errorf("%s: steps sum to %d comparisons, EXPLAIN ANALYZE lines to %d, QueryMetrics.Comparisons is %d", name, steps, rendered, m.Comparisons)
		}
	}
}

// TestExplainAnalyzeShowsEstimatedComparisons — every reorder step carries
// the cost model's comparison term beside the comparisons it made, on its
// EXPLAIN ANALYZE line and its step span (a step without a reorder has 0
// of each on its line and neither on its span), and its detail says how many
// rows its sorts placed by grouping: all of them for F1's in-memory Full
// Sort on (ws_item_sk, ws_sold_date_sk), whose grouped sort asks for well
// under the n·log₂n the model prices.
func TestExplainAnalyzeShowsEstimatedComparisons(t *testing.T) {
	grouped := regexp.MustCompile(`\bgrouped=(\d+)$`)
	for _, tc := range []struct {
		stmt string
		cfg  Config
	}{
		{"F1", Config{SortMemBytes: 256 << 20, Parallelism: 1}},
		{"Q9", Config{SortMemBytes: 16 << 10, BlockSize: 1024, Parallelism: 1}},
	} {
		eng := New(tc.cfg)
		eng.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 4000, Seed: 3}))
		rows, err := eng.QueryContext(context.Background(), paper.Statements[tc.stmt])
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		m := rows.Metrics()
		lines := strings.Join(RenderAnalyze(m), "\n")
		spans := ExecTrace(m).Children
		reorders := 0
		for i, st := range m.Exec.Steps {
			if (st.EstComparisons > 0) != (st.Reorder != core.ReorderNone) {
				t.Errorf("%s step %d [%s]: est_cmps %d", tc.stmt, i, st.Reorder, st.EstComparisons)
			}
			if want := fmt.Sprintf("cmp=%d est_cmps=%d", st.Comparisons, st.EstComparisons); !strings.Contains(lines, want) {
				t.Errorf("%s step %d: EXPLAIN ANALYZE lacks %q:\n%s", tc.stmt, i, want, lines)
			}
			a := spans[i].Attrs
			if st.Reorder == core.ReorderNone {
				if _, ok := a["est_cmps"]; ok {
					t.Errorf("%s step %d: a step without a reorder has span attrs %v", tc.stmt, i, a)
				}
				continue
			}
			if a["cmps"] != strconv.FormatInt(st.Comparisons, 10) || a["est_cmps"] != strconv.FormatInt(st.EstComparisons, 10) {
				t.Errorf("%s step %d: span attrs %v", tc.stmt, i, a)
			}
			reorders++
			g := grouped.FindStringSubmatch(st.Detail)
			if g == nil {
				t.Fatalf("%s step %d: detail %q has no grouped=", tc.stmt, i, st.Detail)
			}
			if tc.stmt == "F1" && (g[1] != strconv.FormatInt(st.Rows, 10) || 4*st.Comparisons > st.EstComparisons) {
				t.Errorf("F1's full sort: %s, %d comparisons against the model's %d", st.Detail, st.Comparisons, st.EstComparisons)
			}
		}
		if reorders == 0 {
			t.Errorf("%s: no reorder step", tc.stmt)
		}
		t.Logf("%s:\n%s", tc.stmt, strings.Join(RenderAnalyze(m)[:len(m.Exec.Steps)+1], "\n"))
	}
}

// TestExecuteSpanIsCoveredByItsChildren — an ORDER BY statement's execute
// span lasts the chain plus the finalize phase, and its children account
// for it: on an F4-shaped statement (WHERE, two navigation functions on one
// reorder, ORDER BY … LIMIT) the step spans and the finalize span cover at
// least 95 % of it, and EXPLAIN ANALYZE prints the phase.
func TestExecuteSpanIsCoveredByItsChildren(t *testing.T) {
	eng := New(Config{SortMemBytes: 256 << 20, Parallelism: 1})
	eng.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 20_000, Seed: 3}))
	q := paper.Statements["F4"]
	rows, err := eng.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	m := rows.Metrics()
	exec := m.Trace
	if exec == nil || exec.Name != "execute" || exec.DurationMillis <= 0 {
		t.Fatalf("trace root %+v, want the execute span", exec)
	}
	var covered float64
	finalize := false
	for _, c := range exec.Children {
		covered += c.DurationMillis
		if c.Name == "finalize" {
			finalize = true
			if c.Attrs["rows_out"] != "100" || c.Attrs["top_k"] != "true" || c.Attrs["final_sort"] != "full" {
				t.Errorf("finalize span attrs %v", c.Attrs)
			}
		}
	}
	if !finalize {
		t.Fatalf("no finalize span among execute's children: %v", exec.Children)
	}
	if frac := covered / exec.DurationMillis; frac < 0.95 || frac > 1.0001 {
		t.Errorf("execute lasts %.3f ms, its children %.3f ms: %.1f %% covered, want 95–100", exec.DurationMillis, covered, 100*frac)
	}
	if lines := RenderAnalyze(m); !slices.ContainsFunc(lines, func(l string) bool {
		return strings.HasPrefix(l, "finalize: rows ") && strings.Contains(l, "-> 100") && strings.HasSuffix(l, "top-k")
	}) {
		t.Errorf("EXPLAIN ANALYZE has no finalize line:\n%s", strings.Join(lines, "\n"))
	}
}
