package sqldriver_test

import (
	"context"
	"database/sql"
	"testing"
	"time"

	windowdb "repro"
	"repro/internal/storage"
	_ "repro/sqldriver"
)

// TestDriverInsert: db.Exec INSERT appends rows through the backend and
// reports the appended count; non-INSERT statements stay read-only.
func TestDriverInsert(t *testing.T) {
	eng := newEngine()
	windowdb.RegisterDSN("driver-insert", eng)
	defer windowdb.RegisterDSN("driver-insert", nil)
	db, err := sql.Open("windowdb", "driver-insert")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	res, err := db.Exec(`INSERT INTO emptab VALUES (11, 20, 4000), (12, 20, NULL)`)
	if err != nil {
		t.Fatalf("Exec INSERT: %v", err)
	}
	if n, err := res.RowsAffected(); err != nil || n != 2 {
		t.Fatalf("RowsAffected = %d, %v, want 2", n, err)
	}
	rows, err := db.Query(`SELECT empnum FROM emptab`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	rows.Close()
	if n != 12 {
		t.Fatalf("post-insert rows = %d, want 12", n)
	}

	if _, err := db.Exec(`SELECT empnum FROM emptab`); err == nil {
		t.Fatal("Exec accepted a read statement")
	}
	if _, err := db.Exec(`INSERT INTO emptab VALUES (1)`); err == nil {
		t.Fatal("Exec accepted an arity-mismatched INSERT")
	}
}

// TestDriverSubscribe: database/sql's incremental scan loop serves a live
// SUBSCRIBE cursor — initial rows, then delta rows as appends land —
// ending on context cancel with the engine's subscription slot drained.
func TestDriverSubscribe(t *testing.T) {
	eng := newEngine()
	windowdb.RegisterDSN("driver-subscribe", eng)
	defer windowdb.RegisterDSN("driver-subscribe", nil)
	db, err := sql.Open("windowdb", "driver-subscribe")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rows, err := db.QueryContext(ctx, `SUBSCRIBE SELECT empnum, rank() OVER (PARTITION BY dept ORDER BY salary DESC NULLS LAST) AS r FROM emptab`)
	if err != nil {
		t.Fatalf("SUBSCRIBE: %v", err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 5 || cols[2] != "_rid" || cols[3] != "_op" || cols[4] != "_watermark" {
		t.Fatalf("columns = %v", cols)
	}
	var emp, r, rid, wm sql.NullInt64
	var op string
	for i := 0; i < 10; i++ {
		if !rows.Next() {
			t.Fatalf("initial stream ended early: %v", rows.Err())
		}
		if err := rows.Scan(&emp, &r, &rid, &op, &wm); err != nil {
			t.Fatalf("Scan: %v", err)
		}
		if op != "init" {
			t.Fatalf("initial row op = %q", op)
		}
	}

	_, watermark, err := eng.Append("emptab", []storage.Tuple{
		{storage.Int(42), storage.Int(10), storage.Int(999999)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no delta after append: %v", rows.Err())
	}
	if err := rows.Scan(&emp, &r, &rid, &op, &wm); err != nil {
		t.Fatalf("Scan delta: %v", err)
	}
	if op != "append" && op != "upsert" {
		t.Fatalf("delta op = %q", op)
	}
	if uint64(wm.Int64) != watermark {
		t.Fatalf("delta watermark = %d, append watermark = %d", wm.Int64, watermark)
	}

	cancel()
	for rows.Next() {
	}
	rows.Close()
	if got := eng.Subscriptions(); got != 0 {
		t.Fatalf("%d subscriptions live after the cursor closed", got)
	}
}
