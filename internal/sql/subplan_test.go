package sql

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/storage"
)

// shareMix is a correlated dashboard mix: same table, same partition key,
// four ordering grains. The finest statement's segment must serve the
// coarser three via the frame lattice.
var shareMix = []string{
	`SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk, ws_sold_time_sk, ws_order_number) AS r FROM web_sales`,
	`SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk, ws_sold_time_sk) AS r FROM web_sales`,
	`SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r FROM web_sales`,
	`SELECT ws_item_sk, sum(ws_quantity) OVER (PARTITION BY ws_item_sk) AS s FROM web_sales`,
}

func TestShareable(t *testing.T) {
	r := testRunner(t)
	for _, q := range shareMix {
		p, err := r.Prepare(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !p.Shareable() {
			t.Errorf("%s: expected shareable, plan %s", q, p.Plan())
		}
		if p.SubplanNode() == "" {
			t.Errorf("%s: empty subplan identity", q)
		}
	}
	// Window-less statements have no subplan to share.
	p, err := r.Prepare(`SELECT ws_item_sk FROM web_sales`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shareable() {
		t.Error("window-less statement reported shareable")
	}
	if _, err := p.RunSubplan(context.Background()); err == nil {
		t.Error("RunSubplan on non-shareable statement should fail")
	}
}

// TestSharedMatchesPrivate: executing each statement's suffix over its own
// subplan segment (exact hit) reproduces the private execution exactly —
// values and order.
func TestSharedMatchesPrivate(t *testing.T) {
	r := testRunner(t)
	ctx := context.Background()
	for _, q := range append(shareMix,
		`SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r FROM web_sales WHERE ws_quantity > 50 ORDER BY ws_item_sk, r LIMIT 40`,
	) {
		p, err := r.Prepare(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := p.ExecuteContext(ctx)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		seg, err := p.RunSubplan(ctx)
		if err != nil {
			t.Fatalf("%s: subplan: %v", q, err)
		}
		got, err := openResult(ctx, p, Input{Shared: seg, ChargeScan: true}, false)
		if err != nil {
			t.Fatalf("%s: shared execute: %v", q, err)
		}
		assertSameRows(t, q, want.Table, got.Table)

		cur, err := p.Open(ctx, Input{Shared: seg}, false)
		if err != nil {
			t.Fatalf("%s: shared stream: %v", q, err)
		}
		rows := drainCursor(t, cur)
		if len(rows) != want.Table.Len() {
			t.Fatalf("%s: shared cursor %d rows, want %d", q, len(rows), want.Table.Len())
		}
		for i, row := range rows {
			if string(storage.AppendTuple(nil, row)) != string(storage.AppendTuple(nil, want.Table.Rows[i])) {
				t.Fatalf("%s: shared cursor row %d differs", q, i)
			}
		}
		// Attachers (chargeScan=false) must not be billed the scan's I/O.
		if m := cur.Meta().Exec; m != nil && seg.Metrics.BlocksRead > 0 && m.BlocksRead >= seg.Metrics.BlocksRead {
			t.Errorf("%s: attacher charged scan I/O (%d blocks)", q, m.BlocksRead)
		}
	}
}

// TestLatticeAttach: the coarser statements of the mix execute correctly
// over the finest statement's segment — the cross-statement lattice hit.
func TestLatticeAttach(t *testing.T) {
	r := testRunner(t)
	ctx := context.Background()
	fine, err := r.Prepare(shareMix[0])
	if err != nil {
		t.Fatal(err)
	}
	seg, err := fine.RunSubplan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range shareMix[1:] {
		p, err := r.Prepare(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !seg.Props.MatchesAll(p.WFs()) {
			t.Fatalf("%s: fine segment %s should match", q, seg.Props)
		}
		want, err := p.ExecuteContext(ctx)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got, err := openResult(ctx, p, Input{Shared: seg}, false)
		if err != nil {
			t.Fatalf("%s: shared: %v", q, err)
		}
		// Cross-statement attach: values must agree; compare as multisets
		// (the attacher's row order follows the finer segment's order).
		if err := gen.SameMultiset(got.Table.Rows, want.Table.Rows); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}

	// The reverse direction must be rejected: a coarse segment cannot
	// serve the fine statement.
	coarse, err := r.Prepare(shareMix[2])
	if err != nil {
		t.Fatal(err)
	}
	cseg, err := coarse.RunSubplan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cseg.Props.MatchesAll(fine.WFs()) {
		t.Fatal("coarse segment should not match the fine statement")
	}
	if _, err := fine.Open(ctx, Input{Shared: cseg}, false); err == nil {
		t.Fatal("ExecuteSharedContext over a too-coarse segment should fail")
	}
}

func TestSubplanKeyCanonical(t *testing.T) {
	r := testRunner(t)
	a, err := r.Prepare(`SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r FROM web_sales WHERE ws_quantity > 50`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Prepare(`SELECT ws_item_sk, avg(ws_quantity) OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a FROM WEB_SALES WHERE WS_QUANTITY > 50`)
	if err != nil {
		t.Fatal(err)
	}
	if a.SubplanScanKey() != b.SubplanScanKey() {
		t.Errorf("scan keys differ: %q vs %q", a.SubplanScanKey(), b.SubplanScanKey())
	}
	if a.SubplanNode() != b.SubplanNode() {
		t.Errorf("lattice nodes differ: %q vs %q", a.SubplanNode(), b.SubplanNode())
	}
	c, err := r.Prepare(`SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r FROM web_sales WHERE ws_quantity > 51`)
	if err != nil {
		t.Fatal(err)
	}
	if a.SubplanScanKey() == c.SubplanScanKey() {
		t.Error("different predicates share a scan key")
	}
}

func assertSameRows(t *testing.T, q string, want, got *storage.Table) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", q, got.Len(), want.Len())
	}
	for i := range want.Rows {
		if string(storage.AppendTuple(nil, got.Rows[i])) != string(storage.AppendTuple(nil, want.Rows[i])) {
			t.Fatalf("%s: row %d differs", q, i)
		}
	}
}
