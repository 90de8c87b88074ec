package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro"
	"repro/internal/storage"
	"repro/internal/stream"
)

// tableRows is a cursor over a materialized table on the Rows surface,
// without a service around it.
type tableRows struct {
	t *storage.Table
	b *stream.Batcher
}

func newTableRows(t *storage.Table) *windowdb.Rows {
	rows := t.Rows
	return windowdb.NewRows(tableRows{t, stream.NewBatcher(t.Schema.Len(), stream.BatchRows, func() (storage.Tuple, error) {
		if len(rows) == 0 {
			return nil, io.EOF
		}
		row := rows[0]
		rows = rows[1:]
		return row, nil
	})})
}

func (tr tableRows) Columns() []storage.Column         { return tr.t.Schema.Columns }
func (tr tableRows) NextBatch() (*stream.Batch, error) { return tr.b.NextBatch() }
func (tableRows) End(windowdb.Ending) *windowdb.QueryMetrics {
	return &windowdb.QueryMetrics{}
}

// sink is a ResponseWriter that keeps the body.
type sink struct {
	hdr  http.Header
	body bytes.Buffer
}

func (s *sink) Header() http.Header         { return s.hdr }
func (s *sink) Write(p []byte) (int, error) { return s.body.Write(p) }
func (s *sink) WriteHeader(int)             {}
func (s *sink) Flush()                      {}

// wireTable is a fixed result with every column layout the codec has:
// NULL-free and NULL-bearing typed columns of each kind, an all-NULL
// column, a column that is mixed in some frames and typed in others.
func wireTable(rows int) *storage.Table {
	t := storage.NewTable(storage.NewSchema(
		storage.Column{Name: "i", Type: storage.TypeInt},
		storage.Column{Name: "f", Type: storage.TypeFloat},
		storage.Column{Name: "s", Type: storage.TypeString},
		storage.Column{Name: "n", Type: storage.TypeInt},
		storage.Column{Name: "m", Type: storage.TypeString},
		storage.Column{Name: "sparse", Type: storage.TypeInt},
	))
	for i := 0; i < rows; i++ {
		row := storage.Tuple{
			storage.Int(math.MaxInt64 - int64(i)),
			storage.Float(float64(i) / 3),
			storage.StringVal(strings.Repeat("s", i%5)),
			storage.Null,
			storage.Int(int64(i)),
			storage.Null,
		}
		if i%4 == 1 {
			row[1], row[2] = storage.Null, storage.Null
		}
		if i >= 300 && i%50 == 0 {
			row[4] = storage.StringVal("mixed") // typed in the first frame, mixed later
		}
		if i%97 == 0 {
			row[5] = storage.Int(int64(-i))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// TestBinaryStreamBytesAreBatchFromTuples is the golden test of the wire:
// what WriteStream frames out of a cursor's batches — gathered column by
// column into one reused batch, truncated where max_rows says — is byte
// for byte BatchFromTuples + AppendBatch over the same rows at the same
// 256-row boundaries, the encoding every reader since WCF1 has decoded.
func TestBinaryStreamBytesAreBatchFromTuples(t *testing.T) {
	table := wireTable(3*stream.BatchRows + 71)
	for _, maxRows := range []int{0, 300, 2 * stream.BatchRows} {
		w := &sink{hdr: http.Header{}}
		WriteStream(context.Background(), w, newTableRows(table), maxRows, CodecBinary)

		rows := table.Rows
		if maxRows > 0 {
			rows = rows[:maxRows]
		}
		fr := stream.NewFrameReader(&w.body)
		if f, err := fr.Next(); err != nil || f.Type != stream.FrameHeader {
			t.Fatalf("max_rows %d: header frame: %v", maxRows, err)
		}
		for off := 0; ; off += stream.BatchRows {
			f, err := fr.Next()
			if err != nil {
				t.Fatalf("max_rows %d: %v", maxRows, err)
			}
			if f.Type == stream.FrameTrailer {
				if off < len(rows) {
					t.Fatalf("max_rows %d: trailer after %d of %d rows", maxRows, off, len(rows))
				}
				break
			}
			if off >= len(rows) {
				t.Fatalf("max_rows %d: a frame past the last row", maxRows)
			}
			b, err := stream.BatchFromTuples(rows[off:min(off+stream.BatchRows, len(rows))], table.Schema.Len())
			if err != nil {
				t.Fatal(err)
			}
			if want := stream.AppendBatch(nil, b); !bytes.Equal(f.Payload, want) {
				t.Fatalf("max_rows %d: the frame at row %d differs from BatchFromTuples+AppendBatch", maxRows, off)
			}
		}
	}
}

// allocatedBy reports the bytes f allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// numericTable is rows of two ints and a float, a third of them NULL:
// nothing in it that a reader must allocate per value.
func numericTable(rows int) *storage.Table {
	t := storage.NewTable(storage.NewSchema(
		storage.Column{Name: "a", Type: storage.TypeInt},
		storage.Column{Name: "b", Type: storage.TypeInt},
		storage.Column{Name: "x", Type: storage.TypeFloat},
	))
	for i := 0; i < rows; i++ {
		row := storage.Tuple{storage.Int(int64(i)), storage.Int(int64(i * 7)), storage.Float(float64(i) / 2)}
		if i%3 == 0 {
			row[2] = storage.Null
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// batchBytes bounds the vectors of one batch of w columns from above: a
// value and a validity slot per cell.
func batchBytes(w int) uint64 { return uint64(stream.BatchRows * w * (16 + 1)) }

// TestStreamWriterAllocatesPerBatchNotPerRow — framing a 20 000-row cursor
// allocates what the first frame does: the cursor's one batch, the frame
// buffer, the header and trailer. The 78 frames after it add nothing that
// scales; the tuple-staging writer allocated two slabs and a batch per
// frame, 40× this bound.
func TestStreamWriterAllocatesPerBatchNotPerRow(t *testing.T) {
	table := numericTable(20_000)
	w := &sink{hdr: http.Header{}}
	w.body.Grow(1 << 20) // the sink's own growth is not the writer's
	got := allocatedBy(func() {
		WriteStream(context.Background(), w, newTableRows(table), 0, CodecBinary)
	})
	if limit := 8 * batchBytes(3); got > limit {
		t.Fatalf("framing %d rows allocated %d bytes, want at most %d (8 batches' worth)", table.Len(), got, limit)
	}
	t.Logf("framing %d rows allocated %d bytes; one batch is at most %d", table.Len(), got, batchBytes(3))
}

// TestStreamReaderAllocatesItsVectorsOnce — 80 frames decode into the
// reader's one batch, and the reader adds no read buffer of its own: the
// whole drain allocates a few batches' worth, not one per frame.
func TestStreamReaderAllocatesItsVectorsOnce(t *testing.T) {
	table := numericTable(80 * stream.BatchRows)
	w := &sink{hdr: http.Header{}}
	WriteStream(context.Background(), w, newTableRows(table), 0, CodecBinary)
	resp := &http.Response{
		Header: http.Header{"Content-Type": {ContentTypeBinary}},
		Body:   io.NopCloser(bytes.NewReader(w.body.Bytes())),
	}
	var frames, rows int
	got := allocatedBy(func() {
		sr, err := wrapResponse("test", resp)
		if err != nil {
			t.Fatal(err)
		}
		for {
			b, err := sr.NextBatch()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			frames++
			rows += b.Len()
		}
	})
	if frames != 80 || rows != table.Len() {
		t.Fatalf("%d frames, %d rows, want 80 and %d", frames, rows, table.Len())
	}
	if limit := 8 * batchBytes(3); got > limit {
		t.Fatalf("decoding %d frames allocated %d bytes, want at most %d (8 batches' worth)", frames, got, limit)
	}
	t.Logf("decoding %d frames allocated %d bytes; one batch is at most %d", frames, got, batchBytes(3))
}

// BenchmarkServeDrain is one windowed statement served over loopback HTTP
// in the binary codec and read three ways: counted (Next alone, what a
// load generator does), scanned (Next+Scan into three variables, what
// database/sql-shaped code does) and kept (Next+Row, every tuple retained).
// B/row and allocs/row are whole-process — the server's cursor and frame
// writer, the HTTP stack, the client's reader — per result row.
func BenchmarkServeDrain(b *testing.B) {
	const (
		tableRows = 20_000
		q         = `SELECT ws_item_sk, ws_order_number, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales`
	)
	svc := newTestService(b, Config{Slots: 1}, tableRows)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL, srv.Client())
	ctx := context.Background()
	styles := []struct {
		name  string
		drain func(rows *windowdb.Rows) (int, error)
	}{
		{"Count", func(rows *windowdb.Rows) (n int, err error) {
			for rows.Next() {
				n++
			}
			return n, rows.Err()
		}},
		{"Scan", func(rows *windowdb.Rows) (n int, err error) {
			var item, order, rank int64
			for rows.Next() {
				if err := rows.Scan(&item, &order, &rank); err != nil {
					return n, err
				}
				n++
			}
			return n, rows.Err()
		}},
		{"Row", func(rows *windowdb.Rows) (n int, err error) {
			kept := make([]storage.Tuple, 0, tableRows)
			for rows.Next() {
				kept = append(kept, rows.Row())
			}
			return len(kept), rows.Err()
		}},
	}
	for _, style := range styles {
		b.Run(style.name, func(b *testing.B) {
			run := func() {
				rows, err := client.QueryContext(ctx, q)
				if err != nil {
					b.Fatal(err)
				}
				if n, err := style.drain(rows); err != nil || n != tableRows {
					b.Fatal(fmt.Errorf("%d rows, err %v", n, err))
				}
			}
			run() // plan cache, connection, pools
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			perRow := float64(b.N) * tableRows
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/perRow, "B/row")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/perRow, "allocs/row")
		})
	}
}
