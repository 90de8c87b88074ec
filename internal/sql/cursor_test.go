package sql

import (
	"context"
	"errors"
	"io"
	"testing"

	"repro/internal/storage"
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
