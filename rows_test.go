package windowdb

import (
	"context"
	"io"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/stream"
)

// TestRowsDrainAllocatesPerBatchNotPerRow — reading a 20 000-row cursor by
// Next and Scan, never asking for a tuple, allocates the cursor's one batch
// and the end-of-stream metadata: a constant, where a tuple per row was
// 20 000 × 3 values. (The chain ran when the cursor was opened; this is
// the drain alone.)
func TestRowsDrainAllocatesPerBatchNotPerRow(t *testing.T) {
	const tableRows = 20_000
	eng := New(Config{SortMemBytes: 64 << 20, Parallelism: 1})
	eng.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: tableRows, Seed: 3, PadBytes: 16}))
	rows, err := eng.QueryContext(context.Background(),
		`SELECT ws_item_sk, ws_order_number, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales`)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	var item, order, rank, n, sum int64
	runtime.ReadMemStats(&before)
	for rows.Next() {
		if err := rows.Scan(&item, &order, &rank); err != nil {
			t.Fatal(err)
		}
		n++
		sum += rank
	}
	runtime.ReadMemStats(&after)
	if err := rows.Err(); err != nil || n != tableRows || sum < n {
		t.Fatalf("%d rows, rank sum %d, err %v", n, sum, err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	oneBatch := uint64(stream.BatchRows(3) * 3 * (16 + 1)) // a value and a validity slot per cell, from above
	if got > 4*oneBatch {
		t.Fatalf("draining %d rows allocated %d bytes, want at most %d (4 batches' worth)", n, got, 4*oneBatch)
	}
	t.Logf("draining %d rows allocated %d bytes; one batch is at most %d", n, got, oneBatch)
}

// TestRowTuplesAreCallerOwned — Row() materializes on demand and what it
// returns is the caller's: exactly its own columns long, so an append
// copies instead of running into the next row; the same tuple when asked
// twice; intact after the cursor has moved to later rows and later
// batches; and one allocation per batch, sized for the rows the batch has
// left when first asked.
func TestRowTuplesAreCallerOwned(t *testing.T) {
	batch := stream.BatchRows(3)
	eng := New(Config{SortMemBytes: 1 << 20, BlockSize: 4096})
	eng.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 2*batch + 500, Seed: 3, PadBytes: 16}))
	ctx := context.Background()
	const src = `SELECT ws_item_sk, ws_order_number, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales`
	want, err := eng.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := eng.QueryContext(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var kept []storage.Tuple
	for rows.Next() {
		row := rows.Row()
		if len(row) != 3 || cap(row) != 3 {
			t.Fatalf("row %d: len %d cap %d, want both 3", len(kept), len(row), cap(row))
		}
		if again := rows.Row(); &again[0] != &row[0] {
			t.Fatalf("row %d: a second Row() built a second tuple", len(kept))
		}
		if grown := append(row, storage.Int(-1)); &grown[0] == &row[0] {
			t.Fatalf("row %d: an append did not copy", len(kept))
		}
		kept = append(kept, row)
	}
	if len(kept) != want.Table.Len() || len(kept) <= 2*batch {
		t.Fatalf("%d rows kept, the table has %d; want several batches", len(kept), want.Table.Len())
	}
	for i, row := range kept {
		for c, v := range row {
			if !storage.Identical(v, want.Table.Rows[i][c]) {
				t.Fatalf("row %d col %d = %s once the cursor is dry, want %s", i, c, v, want.Table.Rows[i][c])
			}
		}
	}

	// Asked for on some rows only, Row() allocates once per batch it was
	// asked in, for the rows from there to the batch's end.
	rows, err = eng.QueryContext(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	for i := 0; i < 200; i++ {
		rows.Next()
	}
	if rows.slab != nil {
		t.Fatal("200 rows read without Row() and a slab exists")
	}
	for i := 0; i < 20; i++ {
		rows.Next()
		_ = rows.Row()
	}
	if got, want := len(rows.slab), (batch-200-20)*3; got != want {
		t.Fatalf("the slab has %d values left after 20 rows, want %d: one slab, sized for the rows the batch had left", got, want)
	}
}

// metaSource is an empty result whose metadata is given.
type metaSource struct{ meta *QueryMetrics }

func (metaSource) Columns() []storage.Column {
	return []storage.Column{{Name: "n", Type: storage.TypeInt}}
}
func (metaSource) NextBatch() (*stream.Batch, error) { return nil, io.EOF }
func (s metaSource) End(Ending) *QueryMetrics        { return s.meta }

// metaQueryer answers every statement with a metaSource.
type metaQueryer struct{ meta *QueryMetrics }

func (q metaQueryer) QueryContext(context.Context, string) (*Rows, error) {
	return NewRows(metaSource{q.meta}), nil
}
func (q metaQueryer) PrepareContext(_ context.Context, src string) (Stmt, error) {
	return TextStmt(q, src), nil
}

// TestCollectIsLossless — a Result collected out of a cursor carries the
// QueryMetrics the cursor ended with, field for field, for every metadata
// shape a backend produces: Collect can stand in for the cursor wherever a
// statement is answered whole.
func TestCollectIsLossless(t *testing.T) {
	plan := &core.Plan{}
	for name, meta := range map[string]sql.Meta{
		"bare":         {FinalSort: "none", Parallelism: 1},
		"chain":        {Plan: plan, Exec: &exec.Metrics{BlocksRead: 7, BlocksWritten: 5, Comparisons: 3}, FinalSort: "partial", SatisfiedPrefix: 2, Parallelism: 4, EstRows: 2000},
		"shared scan":  {Plan: plan, Exec: &exec.Metrics{}, FinalSort: "full", Parallelism: 1, EstRows: 10, SharedScan: "attach"},
		"subscription": {Exec: &exec.Metrics{}, FinalSort: "none", Parallelism: 1, EstRows: 12, Watermark: 9},
	} {
		want := newQueryMetrics(&meta)
		want.Route, want.ShardsUsed, want.CacheHit, want.TraceID = "shuffle", 2, true, "t1"
		res, err := Collect(context.Background(), metaQueryer{want}, "SELECT n FROM t")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(&res.QueryMetrics, want) {
			t.Errorf("%s: collected metadata %+v, want %+v", name, res.QueryMetrics, *want)
		}
	}
}
