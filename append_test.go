package windowdb

import (
	"context"
	"io"
	"testing"

	"repro/internal/datagen"
	"repro/internal/sql"
	"repro/internal/storage"
)

// drainN reads exactly n rows off rows, failing on error or early EOF.
func drainN(t *testing.T, rows *Rows, n int) []storage.Tuple {
	t.Helper()
	out := make([]storage.Tuple, 0, n)
	for len(out) < n && rows.Next() {
		out = append(out, rows.Row())
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("rows.Err() = %v after %d rows", err, len(out))
	}
	if len(out) != n {
		t.Fatalf("drained %d rows, want %d", len(out), n)
	}
	return out
}

func TestEngineInsertStatement(t *testing.T) {
	eng := testEngine(SchemeCSO)
	res, err := eng.Query(`INSERT INTO emptab VALUES (11, 20, 4000), (12, 20, NULL)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() != 1 {
		t.Fatalf("INSERT summary rows = %d, want 1", res.Table.Len())
	}
	row := res.Table.Rows[0]
	if got := row[0].Str(); got != "emptab" {
		t.Errorf("table = %q", got)
	}
	if got := row[1].Int64(); got != 2 {
		t.Errorf("rows_appended = %d", got)
	}
	if wm := row[2].Int64(); wm != 2 {
		t.Errorf("watermark = %d, want 2 (gen starts at 1)", wm)
	}
	tab, err := eng.Table("emptab")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 12 {
		t.Fatalf("emptab rows = %d, want 12", tab.Len())
	}
	// The appended rows are queryable immediately.
	res, err = eng.Query(`SELECT empnum, rank() OVER (PARTITION BY dept ORDER BY salary DESC NULLS LAST) AS r FROM emptab WHERE empnum >= 11 ORDER BY empnum`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() != 2 {
		t.Fatalf("query over appended rows = %d rows", res.Table.Len())
	}
}

func TestEngineInsertErrors(t *testing.T) {
	eng := testEngine(SchemeCSO)
	if _, err := eng.Query(`INSERT INTO nosuch VALUES (1)`); err == nil {
		t.Error("INSERT into unknown table succeeded")
	}
	if _, err := eng.Query(`INSERT INTO emptab VALUES (1, 2)`); err == nil {
		t.Error("INSERT with wrong arity succeeded")
	}
	if tab, _ := eng.Table("emptab"); tab.Len() != 10 {
		t.Errorf("failed INSERTs changed the table: %d rows", tab.Len())
	}
}

func TestEnginePlanCacheSurvivesAppend(t *testing.T) {
	eng := testEngine(SchemeCSO)
	p, err := eng.Prepare(`SELECT empnum, rank() OVER (ORDER BY salary DESC NULLS LAST) AS r FROM emptab`)
	if err != nil {
		t.Fatal(err)
	}
	gen := eng.Generation()
	if _, _, err := eng.Append("emptab", []storage.Tuple{{storage.Int(13), storage.Int(30), storage.Int(9999)}}); err != nil {
		t.Fatal(err)
	}
	if eng.Generation() != gen {
		t.Fatalf("schema generation moved on append: %d -> %d", gen, eng.Generation())
	}
	// The prepared statement still runs, and sees the appended row.
	cur, err := p.Open(context.Background(), sql.Input{}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	n := 0
	for {
		b, err := cur.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n += b.Len()
	}
	if n != 11 {
		t.Fatalf("prepared statement saw %d rows after append, want 11", n)
	}
}

func TestEngineSubscribe(t *testing.T) {
	eng := testEngine(SchemeCSO)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := eng.QueryContext(ctx, `SUBSCRIBE SELECT empnum, rank() OVER (PARTITION BY dept ORDER BY salary DESC NULLS LAST) AS r FROM emptab`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols := rows.Columns()
	if len(cols) != 5 || cols[2] != "_rid" || cols[3] != "_op" || cols[4] != "_watermark" {
		t.Fatalf("columns = %v", cols)
	}
	init := drainN(t, rows, 10)
	for _, r := range init {
		if r[3].Str() != "init" {
			t.Fatalf("initial row op = %q", r[3].Str())
		}
		if r[4].Int64() != 1 {
			t.Fatalf("initial watermark = %d", r[4].Int64())
		}
	}
	if got := eng.Subscriptions(); got != 1 {
		t.Fatalf("Subscriptions = %d", got)
	}
	// Append a top earner in dept 10: one appended output row plus upserts
	// for the displaced ranks in that dept.
	if _, _, err := eng.Append("emptab", []storage.Tuple{{storage.Int(20), storage.Int(10), storage.Int(1000000)}}); err != nil {
		t.Fatal(err)
	}
	delta := drainN(t, rows, 1)[0]
	if delta[4].Int64() != 2 {
		t.Fatalf("delta watermark = %d, want 2", delta[4].Int64())
	}
	op := delta[3].Str()
	if op != "append" && op != "upsert" {
		t.Fatalf("delta op = %q", op)
	}
	// Cancel ends the stream and the subscription drains from the hub.
	cancel()
	for rows.Next() {
	}
	if err := rows.Err(); err != context.Canceled {
		t.Fatalf("post-cancel Err = %v", err)
	}
	rows.Close()
	if got := eng.Subscriptions(); got != 0 {
		t.Fatalf("%d subscriptions live after the cursor ended", got)
	}
}

func TestEngineSubscribeRejects(t *testing.T) {
	eng := testEngine(SchemeCSO)
	for _, src := range []string{
		`SUBSCRIBE SELECT empnum, rank() OVER (ORDER BY salary DESC NULLS LAST) AS r FROM emptab ORDER BY r`,
		`SUBSCRIBE SELECT DISTINCT dept FROM emptab`,
		`SUBSCRIBE SELECT empnum FROM emptab LIMIT 3`,
	} {
		if _, err := eng.QueryContext(context.Background(), src); err == nil {
			t.Errorf("%s: subscription accepted", src)
		}
	}
}

func TestEngineSubscribeParity(t *testing.T) {
	// After appends, the maintained output must equal a fresh engine's
	// one-shot result over the concatenated data.
	eng := testEngine(SchemeCSO)
	base := datagen.WebSales(datagen.WebSalesConfig{Rows: 500, Seed: 7, PadBytes: 0})
	eng.Register("ws", base)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const q = `SELECT ws_item_sk, ws_sold_date_sk, sum(ws_sales_price) OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS s FROM ws`
	rows, err := eng.QueryContext(ctx, "SUBSCRIBE "+q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	drainN(t, rows, 500)
	extra := datagen.WebSales(datagen.WebSalesConfig{Rows: 40, Seed: 8, PadBytes: 0}).Rows
	if _, _, err := eng.Append("ws", extra); err != nil {
		t.Fatal(err)
	}
	// The one-shot result over the appended table must match a fresh
	// engine loaded with the concatenated data.
	fresh := New(Config{Scheme: SchemeCSO, SortMemBytes: 1 << 20, BlockSize: 4096})
	all := append(append([]storage.Tuple{}, base.Rows...), extra...)
	fresh.Register("ws", &storage.Table{Schema: base.Schema, Rows: all})
	want, err := fresh.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if want.Table.Len() != got.Table.Len() {
		t.Fatalf("row counts differ: %d vs %d", got.Table.Len(), want.Table.Len())
	}
	for i := range want.Table.Rows {
		for j := range want.Table.Rows[i] {
			if !storage.Identical(want.Table.Rows[i][j], got.Table.Rows[i][j]) {
				t.Fatalf("row %d col %d: %s vs %s", i, j, got.Table.Rows[i][j], want.Table.Rows[i][j])
			}
		}
	}
}
