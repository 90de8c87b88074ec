package conformance

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	windowdb "repro"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/stream"
)

// edgeRows is three full batches: a result that ends exactly where a
// batch does.
const edgeRows = 3 * stream.BatchRows

// edgeTable is what a column batch has to carry without loss: a NULL-heavy
// int and float column, an all-NULL column, a column whose kinds mix
// (declared STRING; the engine carries whatever a tuple holds), int64
// extremes, and strings from empty to far longer than a batch of anything
// else. k is unique and is the cluster's shard key; grp repeats.
func edgeTable() *storage.Table {
	t := storage.NewTable(storage.NewSchema(
		storage.Column{Name: "k", Type: storage.TypeInt},
		storage.Column{Name: "grp", Type: storage.TypeInt},
		storage.Column{Name: "sparse", Type: storage.TypeInt},
		storage.Column{Name: "nothing", Type: storage.TypeInt},
		storage.Column{Name: "mixed", Type: storage.TypeString},
		storage.Column{Name: "big", Type: storage.TypeInt},
		storage.Column{Name: "s", Type: storage.TypeString},
		storage.Column{Name: "f", Type: storage.TypeFloat},
	))
	extremes := []int64{math.MaxInt64, math.MinInt64, 1<<53 + 1, -(1<<53 + 1), 0, -1}
	texts := []string{"", "a", "héllo\nwörld", strings.Repeat("long ", 1000), "\x00\u00ff", " "}
	for i := 0; i < edgeRows; i++ {
		row := storage.Tuple{
			storage.Int(int64(i)),
			storage.Int(int64(i % 7)),
			storage.Null,
			storage.Null,
			storage.Null,
			storage.Int(extremes[i%len(extremes)]),
			storage.StringVal(texts[i%len(texts)]),
			storage.Null,
		}
		if i%10 == 3 {
			row[2] = storage.Int(int64(-i))
		}
		switch i % 5 {
		case 0:
			row[4] = storage.Int(int64(i))
		case 1:
			row[4] = storage.Float(float64(i) / 4)
		case 2:
			row[4] = storage.StringVal(fmt.Sprint("m", i))
		case 3:
			row[4] = storage.StringVal("")
		}
		if i%3 == 0 {
			row[7] = storage.Float(math.Copysign(float64(i)/8, float64(1-i%2*2)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// The three ways to read a cursor. Each returns every row encoded kind-
// exactly (storage.AppendTuple: two rows encode alike iff their values are
// storage.Identical) and what the cursor counted.
var drainStyles = []struct {
	name  string
	drain func(rows *windowdb.Rows) [][]byte
}{
	{"Next+Row", func(rows *windowdb.Rows) (out [][]byte) {
		var kept []storage.Tuple // rows are the caller's: encoded only once the cursor is dry
		for rows.Next() {
			kept = append(kept, rows.Row())
		}
		for _, row := range kept {
			out = append(out, storage.AppendTuple(nil, row))
		}
		return out
	}},
	{"Next+Scan", func(rows *windowdb.Rows) (out [][]byte) {
		vals := make(storage.Tuple, len(rows.Columns()))
		dest := make([]any, len(vals))
		for i := range vals {
			dest[i] = &vals[i]
		}
		for rows.Next() {
			if err := rows.Scan(dest...); err != nil {
				panic(err)
			}
			out = append(out, storage.AppendTuple(nil, vals))
		}
		return out
	}},
	{"NextBatch", func(rows *windowdb.Rows) (out [][]byte) {
		row := make(storage.Tuple, len(rows.Columns()))
		for {
			b, ok := rows.NextBatch()
			if !ok {
				return out
			}
			if b.Len() == 0 || b.Len() > stream.BatchRows {
				panic(fmt.Sprintf("a batch of %d rows", b.Len()))
			}
			for i := 0; i < b.Len(); i++ {
				b.Row(row, i)
				out = append(out, storage.AppendTuple(nil, row))
			}
		}
	}},
}

// edgeQueries are the result shapes where a columnar carrier could lose
// something, over edgeTable, and the routes a cluster has to carry them.
var edgeQueries = []struct {
	name, sql string
	ordered   bool // a total ORDER BY pins the row order
	rows      int
	sameRows  bool   // every backend returns the same rows (not so for LIMIT without ORDER BY)
	route     string // how a cluster must run it, "" for any way
}{
	{"scan", `SELECT * FROM edge`, false, edgeRows, true, ""},
	{"scan-ordered", `SELECT * FROM edge ORDER BY k`, true, edgeRows, true, ""},
	{"chain", `SELECT k, sparse, nothing, mixed, big, s, f,
		rank() OVER (PARTITION BY k ORDER BY grp) AS r,
		count(sparse) OVER (PARTITION BY k ORDER BY grp) AS c FROM edge`, false, edgeRows, true, "scatter"},
	{"divergent-chain", `SELECT k, mixed, s,
		rank() OVER (PARTITION BY k ORDER BY grp) AS a,
		rank() OVER (PARTITION BY grp ORDER BY k) AS b FROM edge`, false, edgeRows, true, "shuffle"},
	{"empty", `SELECT * FROM edge WHERE k < 0`, false, 0, true, ""},
	{"limit-ordered", `SELECT k, mixed, s FROM edge ORDER BY k LIMIT 7`, true, 7, true, ""},
	{"limit-lazy", `SELECT k, mixed, nothing, s FROM edge LIMIT 7`, false, 7, false, ""},
	{"where-one-batch", `SELECT k, sparse, f FROM edge WHERE k < 256`, false, stream.BatchRows, true, ""},
	// Not over edgeTable: the keyless chains over sharded web_sales.
	{"keyless", keylessSQL, false, dataRows, true, keylessRoute},
	{"keyed-then-keyless", keyedKeylessSQL, false, dataRows, true, keylessRoute},
	{"keyless-where-orderby-limit", keylessLimitSQL, true, 23, true, keylessRoute},
	{"keyless-distinct", keylessDistinctSQL, false, 16, true, keylessRoute},
}

// TestRowAndBatchDrainsAgree: on every backend, reading a result a row at
// a time, by Scan, or a batch at a time yields identical values — and the
// values of the single engine — over the data and the result shapes where
// a columnar carrier could lose something: NULL-heavy, all-NULL and
// mixed-kind columns, int64 extremes, empty and long strings; an empty
// result, a LIMIT inside the first batch, a result that is a whole number
// of batches.
func TestRowAndBatchDrainsAgree(t *testing.T) {
	ref := newEngine()
	ctx := context.Background()
	for _, bk := range backends(t) {
		for _, q := range edgeQueries {
			t.Run(bk.name+"/"+q.name, func(t *testing.T) {
				ordered := q.ordered || bk.ordered
				_, refRows := drain(t, ref, q.sql)
				want := fingerprint(refRows, ordered)
				var first []string
				for _, style := range drainStyles {
					rows, err := bk.q.QueryContext(ctx, q.sql)
					if err != nil {
						t.Fatalf("%s: %v", style.name, err)
					}
					got := fingerprint(style.drain(rows), ordered)
					if err := rows.Err(); err != nil {
						t.Fatalf("%s: %v", style.name, err)
					}
					if len(got) != q.rows {
						t.Fatalf("%s: %d rows, want %d", style.name, len(got), q.rows)
					}
					m := rows.Metrics()
					if m == nil || m.Rows != int64(q.rows) {
						t.Fatalf("%s: metrics %+v, want Rows = %d", style.name, m, q.rows)
					}
					if m.Route != "" && q.route != "" && m.Route != q.route {
						t.Fatalf("%s: route %q, want %s", style.name, m.Route, q.route)
					}
					if first == nil {
						first = got
					}
					for i := range got {
						if got[i] != first[i] {
							t.Fatalf("%s: row %d differs from %s's", style.name, i, drainStyles[0].name)
						}
						if q.sameRows && got[i] != want[i] {
							t.Fatalf("%s: row %d differs from the single engine's", style.name, i)
						}
					}
				}
			})
		}
	}
}

// TestMaxRowsOnABatchBoundary: a front end's max_rows cuts the stream at
// any row — inside a batch, at the end of one, at the end of the result —
// and the trailer says truncated exactly when a further row existed: a
// result delivered whole is not truncated, even when max_rows is its
// exact size and its last batch was full.
func TestMaxRowsOnABatchBoundary(t *testing.T) {
	ref := newEngine()
	_, all := drain(t, ref, `SELECT * FROM edge ORDER BY k`)
	for _, bk := range backends(t) {
		if bk.front == nil {
			continue
		}
		for _, codec := range []service.WireCodec{service.CodecBinary, service.CodecJSON} {
			for _, tc := range []struct {
				maxRows   int
				truncated bool
			}{
				{7, true}, {stream.BatchRows, true}, {stream.BatchRows + 44, true},
				{2 * stream.BatchRows, true}, {edgeRows - 1, true}, {edgeRows, false}, {edgeRows + 1, false},
			} {
				t.Run(fmt.Sprintf("%s/%s/%d", bk.name, codec, tc.maxRows), func(t *testing.T) {
					sr, err := service.OpenStream(context.Background(), bk.front.Client(), bk.front.URL+"/query",
						map[string]any{"sql": `SELECT * FROM edge ORDER BY k`, "stream": true, "max_rows": tc.maxRows}, codec)
					if err != nil {
						t.Fatal(err)
					}
					rows := windowdb.NewRows(sr)
					defer rows.Close()
					n := 0
					for rows.Next() {
						if got := storage.AppendTuple(nil, rows.Row()); string(got) != string(all[n]) {
							t.Fatalf("row %d differs from the single engine's", n)
						}
						n++
					}
					if err := rows.Err(); err != nil {
						t.Fatal(err)
					}
					want := min(tc.maxRows, edgeRows)
					tr := sr.Trailer()
					if n != want || tr == nil || tr.RowCount != int64(want) || tr.Truncated != tc.truncated {
						t.Fatalf("%d rows, trailer %+v; want %d rows, truncated %v", n, tr, want, tc.truncated)
					}
				})
			}
		}
	}
}
