package sql

import (
	"context"
	"errors"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
)

// TestErrorClasses pins the error taxonomy the serving layer's HTTP status
// mapping depends on: parse errors carry ErrParse, every client-side
// prepare failure carries ErrBind, unknown tables wrap
// catalog.ErrUnknownTable, and the classes are mutually exclusive.
func TestErrorClasses(t *testing.T) {
	r := testRunner(t)
	parse := []string{
		"SELEKT * FROM emptab",
		"SELECT rank() FROM emptab",
		"SELECT * FROM emptab WHERE 'unterminated",
	}
	for _, src := range parse {
		_, err := r.Prepare(src)
		if !errors.Is(err, ErrParse) {
			t.Errorf("Prepare(%q) err = %v, want ErrParse", src, err)
		}
		if errors.Is(err, ErrBind) {
			t.Errorf("Prepare(%q): classes must be exclusive", src)
		}
	}
	bind := []string{
		"SELECT rank() OVER (PARTITION BY nosuch) FROM emptab",
		"SELECT frobnicate() OVER () FROM emptab",
		"SELECT ntile(0) OVER () FROM emptab",
		"SELECT nosuchcol FROM emptab",
		"SELECT * FROM emptab ORDER BY nosuch",
		"SELECT * FROM emptab WHERE nosuch = 1",
	}
	for _, src := range bind {
		_, err := r.Prepare(src)
		if !errors.Is(err, ErrBind) {
			t.Errorf("Prepare(%q) err = %v, want ErrBind", src, err)
		}
		if errors.Is(err, ErrParse) || errors.Is(err, catalog.ErrUnknownTable) {
			t.Errorf("Prepare(%q): classes must be exclusive", src)
		}
	}
	_, err := r.Prepare("SELECT * FROM nosuchtable")
	if !errors.Is(err, catalog.ErrUnknownTable) {
		t.Errorf("unknown table err = %v, want catalog.ErrUnknownTable", err)
	}
	if _, err := r.Prepare("SELECT empnum FROM emptab"); err != nil {
		t.Errorf("valid statement failed to prepare: %v", err)
	}
}

// TestPreparedMatchesQuery: preparing once and executing equals the
// one-shot path on every result field, including Section 5's sort
// disposition, for queries with and without windows.
func TestPreparedMatchesQuery(t *testing.T) {
	r := testRunner(t)
	queries := []string{
		`SELECT empnum, rank() OVER (ORDER BY salary DESC NULLS LAST) AS r FROM emptab ORDER BY r, empnum`,
		`SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r FROM web_sales ORDER BY ws_item_sk`,
		`SELECT DISTINCT dept FROM emptab WHERE salary > 40 ORDER BY dept LIMIT 2`,
	}
	for _, src := range queries {
		want, err := runQuery(r, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		p, err := r.Prepare(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for rep := 0; rep < 3; rep++ {
			got, err := p.ExecuteContext(context.Background())
			if err != nil {
				t.Fatalf("%s rep %d: %v", src, rep, err)
			}
			if got.Table.Len() != want.Table.Len() ||
				got.FinalSort != want.FinalSort ||
				got.SatisfiedPrefix != want.SatisfiedPrefix {
				t.Fatalf("%s rep %d: rows %d/%d, sort %s/%s, prefix %d/%d",
					src, rep, got.Table.Len(), want.Table.Len(),
					got.FinalSort, want.FinalSort, got.SatisfiedPrefix, want.SatisfiedPrefix)
			}
			for ri := range want.Table.Rows {
				for ci := range want.Table.Rows[ri] {
					a, b := got.Table.Rows[ri][ci], want.Table.Rows[ri][ci]
					if a.String() != b.String() {
						t.Fatalf("%s rep %d: row %d col %d = %s, want %s", src, rep, ri, ci, a, b)
					}
				}
			}
		}
	}
}

// TestPreparedGenerationSnapshot: a Prepared executes against the entry it
// was planned on, and records the generation so caches can notice.
func TestPreparedGenerationSnapshot(t *testing.T) {
	r := testRunner(t)
	p, err := r.Prepare(`SELECT ws_item_sk FROM web_sales LIMIT 10000`)
	if err != nil {
		t.Fatal(err)
	}
	gen := r.Catalog.Generation()
	if p.Generation() != gen {
		t.Fatalf("prepared generation %d, catalog at %d", p.Generation(), gen)
	}
	res, err := p.ExecuteContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	oldRows := res.Table.Len()

	// Replace the table: the statement keeps reading its snapshot, but its
	// recorded generation is now stale.
	r.Catalog.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 100, Seed: 9, PadBytes: 8}))
	if p.Generation() == r.Catalog.Generation() {
		t.Fatal("generation did not advance on re-registration")
	}
	res, err = p.ExecuteContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() != oldRows {
		t.Fatalf("stale prepared read %d rows, want its snapshot's %d", res.Table.Len(), oldRows)
	}
}

// TestQueryContextCancelled: a prepared statement's execution propagates
// cancellation.
func TestQueryContextCancelled(t *testing.T) {
	r := testRunner(t)
	p, err := r.Prepare(`SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r FROM web_sales`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = p.ExecuteContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
