package sql

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/attrs"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/xsort"
)

func testRunner(t *testing.T) *Runner {
	t.Helper()
	cat := catalog.New()
	cat.Register("emptab", datagen.Emptab())
	cat.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 500, Seed: 1, PadBytes: 8}))
	return &Runner{Catalog: cat, Exec: exec.Config{MemoryBytes: 1 << 20, BlockSize: 4096}}
}

// TestExample1 runs the paper's introductory query verbatim and compares
// the full sample output table.
func TestExample1(t *testing.T) {
	r := testRunner(t)
	res, err := runQuery(r, `
		SELECT empnum, dept, salary,
		       rank() OVER (PARTITION BY dept ORDER BY salary DESC NULLS LAST) AS rank_in_dept,
		       rank() OVER (ORDER BY salary DESC NULLS LAST) AS globalrank
		FROM emptab
		ORDER BY dept NULLS LAST, rank_in_dept`)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{
		// empnum, dept(-1=null), salary(-1=null), rank_in_dept, globalrank
		{4, 1, 78000, 1, 3},
		{5, 1, 75000, 2, 4},
		{9, 1, 53000, 3, 7},
		{7, 2, 51000, 1, 8},
		{3, 2, -1, 2, 9},
		{6, 3, 79000, 1, 2},
		{10, 3, 75000, 2, 4},
		{8, 3, 55000, 3, 6},
		{2, -1, 84000, 1, 1},
		{1, -1, -1, 2, 9},
	}
	if res.Table.Len() != len(want) {
		t.Fatalf("got %d rows, want %d", res.Table.Len(), len(want))
	}
	get := func(v storage.Value) int64 {
		if v.IsNull() {
			return -1
		}
		return v.Int64()
	}
	for i, row := range res.Table.Rows {
		for c := 0; c < 5; c++ {
			if get(row[c]) != want[i][c] {
				t.Errorf("row %d col %d = %s, want %d\n%s", i, c, row[c], want[i][c],
					FormatTable(res.Table, 0))
			}
		}
	}
	if res.Plan == nil || res.Exec == nil {
		t.Errorf("expected plan and metrics")
	}
}

func TestWhereAndLimit(t *testing.T) {
	r := testRunner(t)
	res, err := runQuery(r, `
		SELECT empnum, salary, row_number() OVER (ORDER BY salary DESC) AS rn
		FROM emptab
		WHERE salary IS NOT NULL AND dept IS NOT NULL AND salary >= 55000
		ORDER BY rn
		LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() != 3 {
		t.Fatalf("LIMIT: got %d rows", res.Table.Len())
	}
	if res.Table.Rows[0][1].Int64() != 79000 {
		t.Errorf("top salary = %s", res.Table.Rows[0][1])
	}
}

func TestAggregatesAndFrames(t *testing.T) {
	r := testRunner(t)
	res, err := runQuery(r, `
		SELECT empnum, dept, salary,
		       sum(salary) OVER (PARTITION BY dept ORDER BY salary
		                         ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS s2,
		       avg(salary) OVER (PARTITION BY dept) AS dept_avg,
		       count(*) OVER () AS total
		FROM emptab
		ORDER BY empnum`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() != 10 {
		t.Fatalf("rows = %d", res.Table.Len())
	}
	// count(*) over () must be 10 everywhere.
	for _, row := range res.Table.Rows {
		if row[5].Int64() != 10 {
			t.Errorf("count(*) = %s", row[5])
		}
	}
}

func TestLeadLagNtile(t *testing.T) {
	r := testRunner(t)
	res, err := runQuery(r, `
		SELECT empnum,
		       lead(salary, 1, -1) OVER (ORDER BY empnum) AS next_sal,
		       lag(salary) OVER (ORDER BY empnum) AS prev_sal,
		       ntile(3) OVER (ORDER BY empnum) AS bucket
		FROM emptab
		ORDER BY empnum`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Table.Rows
	if rows[9][1].Int64() != -1 {
		t.Errorf("lead default at last row = %s", rows[9][1])
	}
	if !rows[0][2].IsNull() {
		t.Errorf("lag at first row = %s", rows[0][2])
	}
	if rows[0][3].Int64() != 1 || rows[9][3].Int64() != 3 {
		t.Errorf("ntile buckets wrong: %s %s", rows[0][3], rows[9][3])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT * FROM",
		"SELECT rank() FROM emptab", // missing OVER
		"SELECT rank() OVER () FROM",
		"SELECT foo( FROM emptab",
		"SELECT * FROM emptab WHERE",
		"SELECT * FROM emptab ORDER",
		"SELECT * FROM emptab LIMIT -1",
		"SELECT sum(salary) OVER (ROWS BETWEEN 1 AND 2) FROM emptab",
		"SELECT * FROM emptab WHERE salary ~ 3",
		"SELECT * FROM emptab WHERE 'unterminated",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestBindErrors(t *testing.T) {
	r := testRunner(t)
	bad := []string{
		"SELECT rank() OVER (PARTITION BY nosuch) FROM emptab",
		"SELECT sum(nosuch) OVER () FROM emptab",
		"SELECT frobnicate() OVER () FROM emptab",
		"SELECT ntile(0) OVER () FROM emptab",
		"SELECT sum(salary, salary) OVER () FROM emptab",
		"SELECT nth_value(salary) OVER () FROM emptab",
		"SELECT * FROM nosuchtable",
		"SELECT nosuchcol FROM emptab",
		"SELECT * FROM emptab ORDER BY nosuch",
	}
	for _, src := range bad {
		if _, err := runQuery(r, src); err == nil {
			t.Errorf("Query(%q) should fail", src)
		}
	}
}

func TestPlanExposedMatchesScheme(t *testing.T) {
	r := testRunner(t)
	r.Scheme = SchemePSQL
	res, err := runQuery(r, `
		SELECT rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a,
		       rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_bill_customer_sk) AS b
		FROM web_sales`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Scheme != "PSQL" {
		t.Errorf("plan scheme = %s", res.Plan.Scheme)
	}
	fs, hs, ss := res.Plan.ReorderCounts()
	if fs != 2 || hs != 0 || ss != 0 {
		t.Errorf("PSQL plan should be two full sorts, got %s", res.Plan)
	}
}

func TestNoWindowFunctions(t *testing.T) {
	r := testRunner(t)
	res, err := runQuery(r, "SELECT empnum, salary FROM emptab WHERE dept = 1 ORDER BY salary DESC")
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != nil {
		t.Errorf("plain query should have no window plan")
	}
	if res.Table.Len() != 3 {
		t.Errorf("rows = %d, want 3", res.Table.Len())
	}
	if !strings.EqualFold(res.Table.Schema.Columns[0].Name, "empnum") {
		t.Errorf("schema = %v", res.Table.Schema.Names())
	}
}

// TestSection5OrderIntegration — the CSO runner reshuffles its chain so a
// matching ORDER BY is avoided or partially satisfied, and the result is
// still correctly ordered.
func TestSection5OrderIntegration(t *testing.T) {
	r := testRunner(t)
	res, err := runQuery(r, `
		SELECT ws_item_sk, ws_sold_date_sk,
		       rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r1,
		       rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_time_sk) AS r2
		FROM web_sales
		ORDER BY ws_item_sk, ws_sold_date_sk`)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalSort != "avoided" && res.FinalSort != "partial" {
		t.Errorf("FinalSort = %q (satisfied %d); chain %s", res.FinalSort, res.SatisfiedPrefix, res.Plan.PaperString())
	}
	// Ordering must hold regardless of how it was achieved.
	key := attrs.AscSeq(0, 1)
	if !storage.SortedOn(res.Table.Rows, key) {
		t.Fatalf("output not ordered despite FinalSort=%q", res.FinalSort)
	}
	// The same query under PSQL pays a full final sort but agrees on rows.
	rp := testRunner(t)
	rp.Scheme = SchemePSQL
	resP, err := runQuery(rp, `
		SELECT ws_item_sk, ws_sold_date_sk,
		       rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r1,
		       rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_time_sk) AS r2
		FROM web_sales
		ORDER BY ws_item_sk, ws_sold_date_sk`)
	if err != nil {
		t.Fatal(err)
	}
	if resP.FinalSort != "full" {
		t.Errorf("PSQL FinalSort = %q, want full", resP.FinalSort)
	}
	if !storage.SortedOn(resP.Table.Rows, key) {
		t.Fatalf("PSQL output not ordered")
	}
}

// TestFinalSortsKeepChainOrderOnTies — the full sort, the partial sort and
// the top-k selection put rows that tie on ORDER BY where sort.SliceStable
// did: in the order the chain delivered them.
func TestFinalSortsKeepChainOrderOnTies(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rows := make([]storage.Tuple, 3000)
	for i := range rows {
		// Column 0 arrives in runs (the satisfied prefix), column 1 has
		// few values, column 2 is the arrival position.
		rows[i] = storage.Tuple{storage.Int(int64(i / 40)), storage.Int(rng.Int63n(5)), storage.Int(int64(i))}
	}
	key := attrs.Seq{{Attr: 0}, {Attr: 1, Desc: true}}
	want := slices.Clone(rows)
	sort.SliceStable(want, func(i, j int) bool { return storage.CompareSeq(want[i], want[j], key) < 0 })

	src := &exec.Chain{Rows: rows, Width: 3}
	n := len(rows)
	by := func(key attrs.Seq) func(i, j int) int {
		return func(i, j int) int { return src.Compare(i, j, key) }
	}
	full := identity(make([]int, n))
	xsort.Stable(full, nil, by(key))
	for name, got := range map[string][]int{
		"full":          full,
		"partial":       partialSort(new([]int), new([]int), n, n, by(key[:1]), by(key[1:])),
		"partial-limit": partialSort(new([]int), new([]int), n, 101, by(key[:1]), by(key[1:])),
		"topk":          xsort.TopK(nil, n, 2999, by(key)),
	} {
		for i, pos := range got {
			if w := want[i][2].Int64(); int64(pos) != w {
				t.Fatalf("%s, row %d: arrival %d, sort.SliceStable %d", name, i, pos, w)
			}
		}
	}
}

// TestAliasShadowingOrderBy — an alias shadowing a base column must not
// fool the Section 5 alignment into skipping a needed sort.
func TestAliasShadowingOrderBy(t *testing.T) {
	r := testRunner(t)
	res, err := runQuery(r, `
		SELECT ws_sold_date_sk AS ws_item_sk,
		       rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS rk
		FROM web_sales
		ORDER BY ws_item_sk`)
	if err != nil {
		t.Fatal(err)
	}
	// ORDER BY ws_item_sk refers to the ALIASED date column (output col 0).
	if !storage.SortedOn(res.Table.Rows, attrs.AscSeq(0)) {
		t.Fatalf("output not ordered on the aliased column (FinalSort=%q)", res.FinalSort)
	}
}

func TestSelectDistinct(t *testing.T) {
	r := testRunner(t)
	res, err := runQuery(r, `SELECT DISTINCT dept FROM emptab ORDER BY dept NULLS LAST`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() != 4 { // depts 1, 2, 3 and NULL
		t.Fatalf("distinct depts = %d, want 4\n%s", res.Table.Len(), FormatTable(res.Table, 0))
	}
	// DISTINCT over a window result: each dept has 3 or 2 distinct ranks.
	res2, err := runQuery(r, `
		SELECT DISTINCT dept, count(*) OVER (PARTITION BY dept) AS sz
		FROM emptab ORDER BY dept NULLS LAST`)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Table.Len() != 4 {
		t.Fatalf("distinct (dept,size) rows = %d, want 4", res2.Table.Len())
	}
	if res2.Table.Rows[0][1].Int64() != 3 {
		t.Errorf("dept 1 size = %s", res2.Table.Rows[0][1])
	}
}

// TestRunnerParallelExecution — a Runner with Parallelism > 1 runs the
// chain partitioned, agrees with the sequential runner
// row-for-row, and satisfies ORDER BY with an explicit full sort (the
// concatenated partition order never pre-satisfies it).
func TestRunnerParallelExecution(t *testing.T) {
	const query = `
		SELECT ws_order_number, ws_item_sk,
		       rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r1,
		       rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_bill_customer_sk) AS r2
		FROM web_sales
		ORDER BY ws_item_sk, ws_order_number`
	seq := testRunner(t)
	seqRes, err := runQuery(seq, query)
	if err != nil {
		t.Fatal(err)
	}
	par := testRunner(t)
	par.Exec.Parallelism = 4
	parRes, err := runQuery(par, query)
	if err != nil {
		t.Fatal(err)
	}
	if parRes.Parallelism != 4 {
		t.Errorf("Result.Parallelism = %d, want 4", parRes.Parallelism)
	}
	if seqRes.Parallelism != 1 {
		t.Errorf("sequential Result.Parallelism = %d, want 1", seqRes.Parallelism)
	}
	if parRes.FinalSort != "full" {
		t.Errorf("parallel FinalSort = %q, want full", parRes.FinalSort)
	}
	if parRes.Table.Len() != seqRes.Table.Len() {
		t.Fatalf("parallel rows = %d, sequential %d", parRes.Table.Len(), seqRes.Table.Len())
	}
	// The ORDER BY key is unique per row, so both orders must agree exactly.
	for i := range seqRes.Table.Rows {
		a := string(storage.AppendTuple(nil, seqRes.Table.Rows[i]))
		b := string(storage.AppendTuple(nil, parRes.Table.Rows[i]))
		if a != b {
			t.Fatalf("row %d differs between sequential and parallel runner", i)
		}
	}
}

// TestRunnerParallelKeepsSortAvoidance — a chain Parallelism > 1 runs
// sequentially end to end (its single function has an empty PARTITION BY, so
// no common partition key exists) must keep Section 5's sort avoidance: the
// output order really is the sequential plan's.
func TestRunnerParallelKeepsSortAvoidance(t *testing.T) {
	const query = `SELECT empnum, salary, rank() OVER (ORDER BY salary DESC NULLS LAST) AS r
		FROM emptab ORDER BY salary DESC NULLS LAST`
	seq := testRunner(t)
	seqRes, err := runQuery(seq, query)
	if err != nil {
		t.Fatal(err)
	}
	par := testRunner(t)
	par.Exec.Parallelism = 4
	parRes, err := runQuery(par, query)
	if err != nil {
		t.Fatal(err)
	}
	if parRes.Exec.Concatenated {
		t.Fatalf("empty-WPK chain reported concatenated output")
	}
	if parRes.Parallelism != 1 {
		t.Errorf("sequential-fallback chain reports Parallelism = %d, want 1", parRes.Parallelism)
	}
	if seqRes.FinalSort != "avoided" {
		t.Fatalf("precondition: sequential FinalSort = %q, want avoided", seqRes.FinalSort)
	}
	if parRes.FinalSort != seqRes.FinalSort {
		t.Errorf("parallel FinalSort = %q, sequential %q", parRes.FinalSort, seqRes.FinalSort)
	}
	for i := range seqRes.Table.Rows {
		a := string(storage.AppendTuple(nil, seqRes.Table.Rows[i]))
		b := string(storage.AppendTuple(nil, parRes.Table.Rows[i]))
		if a != b {
			t.Fatalf("row %d differs between sequential and parallel runner", i)
		}
	}
}
