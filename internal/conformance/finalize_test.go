package conformance

import (
	"context"
	"testing"

	"repro/internal/trace"
)

func findSpan(s *trace.Span, name string) *trace.Span {
	if s == nil || s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if hit := findSpan(c, name); hit != nil {
			return hit
		}
	}
	return nil
}

// TestFinalizeSpanOnEveryBackend: wherever DISTINCT, ORDER BY and LIMIT are
// decided — the engine behind a local or remote front end, or a cluster's
// coordinator over its shards' concatenation — the statement's trace has a
// finalize span under execute that says how many rows went in and came out
// and how the sort was done.
func TestFinalizeSpanOnEveryBackend(t *testing.T) {
	const q = `SELECT ws_item_sk, ws_order_number,
		rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r
		FROM web_sales WHERE ws_quantity > 50 ORDER BY ws_order_number LIMIT 25`
	for _, bk := range backends(t) {
		t.Run(bk.name, func(t *testing.T) {
			rows, err := bk.q.QueryContext(trace.NewContext(context.Background(), trace.NewID()), q)
			if err != nil {
				t.Fatal(err)
			}
			for rows.Next() {
			}
			if err := rows.Err(); err != nil {
				t.Fatal(err)
			}
			m := rows.Metrics()
			if m == nil || m.Trace == nil {
				t.Fatalf("no trace after drain: %+v", m)
			}
			fin := findSpan(findSpan(m.Trace, "execute"), "finalize")
			if fin == nil {
				t.Fatalf("no finalize span under execute:\n%v", trace.Render(m.Trace))
			}
			if fin.Attrs["rows_out"] != "25" || fin.Attrs["final_sort"] != "full" || fin.Attrs["top_k"] != "true" || fin.Attrs["rows_in"] == "" {
				t.Fatalf("finalize span attrs %v, want 25 rows out of a full sort done as a top-k selection", fin.Attrs)
			}
		})
	}
}
