package sql

import (
	"context"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/datagen"
	"repro/internal/storage"
	"repro/internal/stream"
)

// openResult opens p over in and materializes the cursor: the whole-result
// form of any execution Open can express.
func openResult(ctx context.Context, p *Prepared, in Input, shardLocal bool) (*Result, error) {
	cur, err := p.Open(ctx, in, shardLocal)
	if err != nil {
		return nil, err
	}
	return cur.Materialize(), nil
}

// runQuery prepares src and executes it whole.
func runQuery(r *Runner, src string) (*Result, error) {
	p, err := r.Prepare(src)
	if err != nil {
		return nil, err
	}
	return p.ExecuteContext(context.Background())
}

// drainCursor pulls a cursor dry.
func drainCursor(t *testing.T, c *Cursor) []storage.Tuple {
	t.Helper()
	var out []storage.Tuple
	for {
		b, err := c.NextBatch()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("cursor: %v", err)
		}
		out = append(out, b.Tuples()...)
	}
}

// cursorQueries spans the execution shapes: lazy projection (no
// finalize), WHERE, eager finalize via ORDER BY, DISTINCT, LIMIT on both
// paths, star, window-less.
var cursorQueries = []string{
	`SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales`,
	`SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales WHERE ws_quantity > 50`,
	`SELECT ws_item_sk, ws_order_number, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales ORDER BY r, ws_item_sk, ws_order_number`,
	`SELECT DISTINCT ws_item_sk FROM web_sales`,
	`SELECT ws_item_sk, ws_order_number FROM web_sales LIMIT 7`,
	`SELECT ws_item_sk, rank() OVER (ORDER BY ws_sold_time_sk) AS r FROM web_sales LIMIT 11`,
	`SELECT DISTINCT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r FROM web_sales ORDER BY ws_item_sk, r LIMIT 13`,
	`SELECT * FROM emptab`,
	`SELECT empnum, salary FROM emptab ORDER BY salary DESC NULLS LAST, empnum`,
}

// TestCursorMatchesExecute: for every execution shape, the streamed rows
// equal ExecuteContext's table — same values, same order — and the
// cursor's metadata matches the eager result's.
func TestCursorMatchesExecute(t *testing.T) {
	r := testRunner(t)
	ctx := context.Background()
	for _, q := range cursorQueries {
		p, err := r.Prepare(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := p.ExecuteContext(ctx)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		cur, err := p.Open(ctx, Input{}, false)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got := drainCursor(t, cur)
		if len(got) != want.Table.Len() {
			t.Fatalf("%s: cursor %d rows, execute %d", q, len(got), want.Table.Len())
		}
		for i, row := range got {
			if string(storage.AppendTuple(nil, row)) != string(storage.AppendTuple(nil, want.Table.Rows[i])) {
				t.Fatalf("%s: row %d differs", q, i)
			}
		}
		meta := cur.Meta()
		if meta.FinalSort != want.FinalSort {
			t.Errorf("%s: cursor FinalSort %q, execute %q", q, meta.FinalSort, want.FinalSort)
		}
		if (meta.Plan == nil) != (want.Plan == nil) {
			t.Errorf("%s: plan presence differs", q)
		}
	}
}

// TestCursorShardStream: the shard-local stream skips DISTINCT, ORDER BY
// and LIMIT, matching ExecuteShardContext.
func TestCursorShardStream(t *testing.T) {
	r := testRunner(t)
	ctx := context.Background()
	q := `SELECT DISTINCT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r FROM web_sales ORDER BY ws_item_sk LIMIT 3`
	p, err := r.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := openResult(ctx, p, Input{}, true)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := p.Open(ctx, Input{}, true)
	if err != nil {
		t.Fatal(err)
	}
	got := drainCursor(t, cur)
	if len(got) != want.Table.Len() {
		t.Fatalf("shard stream %d rows, execute %d (LIMIT must not apply)", len(got), want.Table.Len())
	}
	for i, row := range got {
		if string(storage.AppendTuple(nil, row)) != string(storage.AppendTuple(nil, want.Table.Rows[i])) {
			t.Fatalf("row %d differs", i)
		}
	}
}

// TestCursorLimitStopsEarly: the lazy path stops yielding at LIMIT
// without touching later source rows.
func TestCursorLimitStopsEarly(t *testing.T) {
	r := testRunner(t)
	p, err := r.Prepare(`SELECT ws_order_number FROM web_sales LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := p.Open(context.Background(), Input{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := drainCursor(t, cur); len(got) != 5 {
		t.Fatalf("got %d rows, want 5", len(got))
	}
}

// TestCursorCancelMidStream: a context cancelled between pulls surfaces
// at the next batch on the lazy path.
func TestCursorCancelMidStream(t *testing.T) {
	r := testRunner(t)
	r.Catalog.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: stream.BatchRows(1) + 1, Seed: 1}))
	p, err := r.Prepare(`SELECT ws_order_number FROM web_sales`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cur, err := p.Open(ctx, Input{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.NextBatch(); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	cancel()
	if _, err := cur.NextBatch(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled at the next batch", err)
	}
}

// TestCursorCloseIsEOF: Close ends iteration and is idempotent.
func TestCursorCloseIsEOF(t *testing.T) {
	r := testRunner(t)
	p, err := r.Prepare(`SELECT ws_order_number FROM web_sales`)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := p.Open(context.Background(), Input{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.NextBatch(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.NextBatch(); err != io.EOF {
		t.Fatalf("NextBatch after Close = %v, want io.EOF", err)
	}
}

// TestClosedCursorsBatchIsPoisoned: a cursor's batch is its workspace's,
// which Close gives back for the next statement's cursor to refill, so a
// batch read after its cursor's Close shows, under stream.PoisonReused,
// poison — not the rows it carried — in every vector it held.
func TestClosedCursorsBatchIsPoisoned(t *testing.T) {
	defer stream.PoisonReused()()
	r := testRunner(t)
	p, err := r.Prepare(`SELECT ws_order_number, ws_sales_price, ws_pad FROM web_sales WHERE ws_quantity > 20 ORDER BY ws_order_number LIMIT 300`)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := p.Open(context.Background(), Input{}, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cur.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	cols := b.Cols()
	ints, floats, strs := cols[0].Ints, cols[1].Floats, cols[2].Strs
	if len(ints) == 0 || len(floats) != len(ints) || len(strs) != len(ints) {
		t.Fatalf("batch of %d rows: %d ints, %d floats, %d strings; want one typed vector each", b.Len(), len(ints), len(floats), len(strs))
	}
	was := b.Tuples()
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	for i, row := range was {
		if ints[i] == row[0].Int64() || !math.IsNaN(floats[i]) || strs[i] == row[2].Str() {
			t.Fatalf("row %d read after Close: %d, %v, %q — the rows it carried, not poison", i, ints[i], floats[i], strs[i])
		}
	}
}

// TestOpenCursorsShareNoVectors: cursors open at once on one Runner each
// take a workspace of their own, so their batches never share a vector,
// and drained in turns — under the poison switch, which overwrites a
// vector handed out again — each yields exactly its statement's rows.
func TestOpenCursorsShareNoVectors(t *testing.T) {
	defer stream.PoisonReused()()
	r := testRunner(t)
	ctx := context.Background()
	stmts := []string{
		`SELECT ws_item_sk, ws_sales_price, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales`,
		`SELECT ws_order_number, ws_list_price FROM web_sales WHERE ws_quantity > 10 ORDER BY ws_order_number`,
		`SELECT DISTINCT ws_item_sk, count(*) OVER (PARTITION BY ws_item_sk) AS n FROM web_sales`,
	}
	wants := make([][]storage.Tuple, len(stmts))
	curs := make([]*Cursor, len(stmts))
	for i, q := range stmts {
		p, err := r.Prepare(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		res, err := p.ExecuteContext(ctx)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		wants[i] = res.Table.Rows
		if curs[i], err = p.Open(ctx, Input{}, false); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	gots := make([][]storage.Tuple, len(stmts))
	for open := len(curs); open > 0; {
		held := map[unsafe.Pointer]int{}
		for i, cur := range curs {
			if cur == nil {
				continue
			}
			b, err := cur.NextBatch()
			if err == io.EOF {
				cur.Close()
				curs[i] = nil
				open--
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", stmts[i], err)
			}
			for _, v := range vectors(b) {
				if j, shared := held[v]; shared {
					t.Fatalf("%q and %q, open at once, fill one vector", stmts[j], stmts[i])
				}
				held[v] = i
			}
			gots[i] = append(gots[i], b.Tuples()...)
		}
	}
	for i := range stmts {
		if !reflect.DeepEqual(gots[i], wants[i]) {
			t.Errorf("%s: %d rows drained in turns, %d executed alone, or they differ", stmts[i], len(gots[i]), len(wants[i]))
		}
	}
}

// vectors returns where every typed or mixed vector of b starts.
func vectors(b *stream.Batch) []unsafe.Pointer {
	var out []unsafe.Pointer
	for _, c := range b.Cols() {
		for _, p := range []unsafe.Pointer{
			unsafe.Pointer(unsafe.SliceData(c.Null)), unsafe.Pointer(unsafe.SliceData(c.Ints)),
			unsafe.Pointer(unsafe.SliceData(c.Floats)), unsafe.Pointer(unsafe.SliceData(c.Strs)),
			unsafe.Pointer(unsafe.SliceData(c.Mixed)),
		} {
			if p != nil {
				out = append(out, p)
			}
		}
	}
	return out
}

// TestCursorWorkspaceGoesBackOnce: every way a cursor ends — drained,
// closed mid-stream, closed twice, materialized — gives its workspace back
// exactly once: one statement after another, from an empty free list, each
// leaves the one workspace they share waiting in it.
func TestCursorWorkspaceGoesBackOnce(t *testing.T) {
	r := testRunner(t)
	ctx := context.Background()
	for cursorWorks.Len() > 0 {
		cursorWorks.Get()
	}
	for _, q := range cursorQueries {
		p, err := r.Prepare(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for _, end := range []string{"drain", "close", "close twice", "materialize"} {
			cur, err := p.Open(ctx, Input{}, false)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			switch end {
			case "drain":
				drainCursor(t, cur)
				cur.Close()
			case "close":
				cur.NextBatch()
				cur.Close()
			case "close twice":
				cur.Close()
				cur.Close()
			case "materialize":
				cur.Materialize()
			}
			if got := cursorWorks.Len(); got != 1 {
				t.Fatalf("%s, %s: %d workspaces idle, want 1", q, end, got)
			}
		}
	}
}
