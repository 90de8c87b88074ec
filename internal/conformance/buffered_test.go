package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"testing"
	"time"

	windowdb "repro"
	"repro/internal/paper"
	"repro/internal/service"
	"repro/internal/sql"
	"repro/internal/storage"
)

// observed is one execution of a statement as a caller saw it: the rows in
// the order they came, each as its JSON rendering, and the metadata every
// result shape reports.
type observed struct {
	rows                      []string
	rowCount                  int64
	truncated                 bool
	chain, finalSort          string
	sharedScan, route         string
	shardsUsed                int
	blocksRead, blocksWritten int64
}

func (o observed) meta() string {
	return fmt.Sprintf("chain=%q final_sort=%q shared_scan=%q route=%q shards_used=%d blocks=%d/%d",
		o.chain, o.finalSort, o.sharedScan, o.route, o.shardsUsed, o.blocksRead, o.blocksWritten)
}

// jsonRow renders a row the way a buffered /query body does.
func jsonRow(row storage.Tuple) string {
	out := make([]any, len(row))
	for i, v := range row {
		out[i] = service.JSONValue(v)
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func jsonRows(t *storage.Table) []string {
	rows := make([]string, t.Len())
	for i, row := range t.Rows {
		rows[i] = jsonRow(row)
	}
	return rows
}

// viaCursor drains the backend's Rows cursor.
func viaCursor(t *testing.T, q windowdb.Queryer, src string) observed {
	t.Helper()
	rows, err := q.QueryContext(context.Background(), src)
	if err != nil {
		t.Fatalf("cursor: %v", err)
	}
	defer rows.Close()
	var o observed
	for rows.Next() {
		o.rows = append(o.rows, jsonRow(rows.Row()))
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("cursor: %v", err)
	}
	m := rows.Metrics()
	if m == nil {
		t.Fatal("cursor: no metrics after the drain")
	}
	o.rowCount = m.Rows
	o.chain, o.finalSort, o.sharedScan = m.Chain, m.FinalSort, m.SharedScan
	o.route, o.shardsUsed = m.Route, m.ShardsUsed
	o.blocksRead, o.blocksWritten = m.BlocksRead, m.BlocksWritten
	return o
}

// viaCollect answers the statement whole through windowdb.Collect.
func viaCollect(t *testing.T, q windowdb.Queryer, src string) observed {
	t.Helper()
	res, err := windowdb.Collect(context.Background(), q, src)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return observed{
		rows: jsonRows(res.Table), rowCount: res.Rows,
		chain: res.Chain, finalSort: res.FinalSort, sharedScan: res.SharedScan,
		route: res.Route, shardsUsed: res.ShardsUsed,
		blocksRead: res.BlocksRead, blocksWritten: res.BlocksWritten,
	}
}

// viaBufferedHTTP posts the statement to a front end's /query and decodes
// the buffered JSON body.
func viaBufferedHTTP(t *testing.T, front *httptest.Server, src string, maxRows int) observed {
	t.Helper()
	req, err := json.Marshal(map[string]any{"sql": src, "max_rows": maxRows})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := front.Client().Post(front.URL+"/query", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatalf("buffered /query: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("buffered /query: status %s", resp.Status)
	}
	var body struct {
		Rows          []json.RawMessage `json:"rows"`
		RowCount      int64             `json:"row_count"`
		Truncated     bool              `json:"truncated"`
		Chain         string            `json:"chain"`
		FinalSort     string            `json:"final_sort"`
		SharedScan    string            `json:"shared_scan"`
		Route         string            `json:"route"`
		ShardsUsed    int               `json:"shards_used"`
		BlocksRead    int64             `json:"blocks_read"`
		BlocksWritten int64             `json:"blocks_written"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("buffered /query: %v", err)
	}
	o := observed{
		rowCount: body.RowCount, truncated: body.Truncated,
		chain: body.Chain, finalSort: body.FinalSort, sharedScan: body.SharedScan,
		route: body.Route, shardsUsed: body.ShardsUsed,
		blocksRead: body.BlocksRead, blocksWritten: body.BlocksWritten,
	}
	for _, r := range body.Rows {
		o.rows = append(o.rows, string(r))
	}
	return o
}

// TestBufferedEqualsCursor: a statement answered whole — by
// windowdb.Collect over every backend, by a front end's buffered JSON body
// — is the statement's cursor, drained: the same rows in the same order
// and the same chain, final-sort disposition, shared-scan disposition,
// route, shard count and block counters, for the paper's Q1–Q9, the
// benchmark's F1–F6 and the edge-case results. A buffered body cut by
// max_rows carries the leading rows and still counts the whole result.
func TestBufferedEqualsCursor(t *testing.T) {
	statements := make(map[string]string, len(paper.Statements)+len(edgeQueries))
	for name, src := range paper.Statements {
		statements[name] = src
	}
	for _, q := range edgeQueries {
		statements["edge/"+q.name] = q.sql
	}
	names := make([]string, 0, len(statements))
	for name := range statements {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, bk := range backends(t) {
		for _, name := range names {
			src := statements[name]
			t.Run(bk.name+"/"+name, func(t *testing.T) {
				// The first execution of a shareable statement runs the scan
				// the later ones are served from; compare like with like.
				viaCursor(t, bk.q, src)
				want := viaCursor(t, bk.q, src)
				if want.rowCount != int64(len(want.rows)) {
					t.Fatalf("cursor counted %d rows and yielded %d", want.rowCount, len(want.rows))
				}
				// A shuffled chain without an ORDER BY emits its rows in the
				// order its nodes' deliveries arrived: the same rows each
				// time, in no particular order.
				unordered := want.route == "shuffle" && want.finalSort == "none"
				sameRows := func(form string, got, rows []string) {
					t.Helper()
					if unordered {
						got, rows = slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(rows))
					}
					if !slices.Equal(got, rows) {
						t.Fatalf("%s: %d rows differ from the cursor's %d (or their order does)", form, len(got), len(rows))
					}
				}
				same := func(form string, got observed, rows []string) {
					t.Helper()
					sameRows(form, got.rows, rows)
					if got.rowCount != want.rowCount {
						t.Fatalf("%s: row count %d, cursor %d", form, got.rowCount, want.rowCount)
					}
					if got.meta() != want.meta() {
						t.Fatalf("%s: %s\ncursor: %s", form, got.meta(), want.meta())
					}
				}

				same("Collect", viaCollect(t, bk.q, src), want.rows)

				if bk.front == nil {
					return
				}
				whole := viaBufferedHTTP(t, bk.front, src, 0)
				if whole.truncated {
					t.Fatal("buffered body: truncated without max_rows")
				}
				same("buffered body", whole, want.rows)
				cut := viaBufferedHTTP(t, bk.front, src, 2)
				if cut.truncated != (len(want.rows) > 2) {
					t.Fatalf("buffered body, max_rows 2: truncated = %v over %d rows", cut.truncated, len(want.rows))
				}
				if unordered {
					cut.rows, want.rows = nil, nil // which two rows lead is not defined
				}
				same("buffered body, max_rows 2", cut, want.rows[:min(2, len(want.rows))])
			})
		}
	}
}

// TestCollectRefusesSubscribe: a subscription never ends, so answering one
// whole is refused — sql.ErrBind from Collect on every backend, and from
// Engine.Query, within a guard instead of a drain that blocks forever.
func TestCollectRefusesSubscribe(t *testing.T) {
	const src = `SUBSCRIBE SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales`
	guard := func(t *testing.T, answer func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- answer() }()
		select {
		case err := <-done:
			if !errors.Is(err, sql.ErrBind) {
				t.Fatalf("err = %v, want sql.ErrBind", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("still answering a SUBSCRIBE after 5 s")
		}
	}
	for _, bk := range backends(t) {
		t.Run(bk.name, func(t *testing.T) {
			guard(t, func() error {
				_, err := windowdb.Collect(context.Background(), bk.q, src)
				return err
			})
		})
	}
	t.Run("engine/Query", func(t *testing.T) {
		guard(t, func() error {
			_, err := newEngine().Query(src)
			return err
		})
	})
}
