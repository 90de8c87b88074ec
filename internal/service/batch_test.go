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
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/recycle"
	"repro/internal/storage"
	"repro/internal/stream"
)

// tableRows is a cursor over a materialized table on the Rows surface,
// without a service around it: each batch is the next stream.BatchRows of
// the table's rows, filled into a batch that comes from tableBatches and
// goes back at the end, as a served cursor's does.
type tableRows struct {
	t    *storage.Table
	rows []storage.Tuple // what is left to yield
	b    *stream.Batch
}

var tableBatches = recycle.NewList((*stream.Batch).Bytes)

func newTableRows(t *storage.Table) *windowdb.Rows {
	return windowdb.NewRows(&tableRows{t: t, rows: t.Rows, b: tableBatches.Get()})
}

func (tr *tableRows) Columns() []storage.Column { return tr.t.Schema.Columns }

func (tr *tableRows) NextBatch() (*stream.Batch, error) {
	if len(tr.rows) == 0 {
		return nil, io.EOF
	}
	arity := tr.t.Schema.Len()
	n := min(len(tr.rows), stream.BatchRows(arity))
	err := tr.b.FillTuples(tr.rows[:n], arity)
	tr.rows = tr.rows[n:]
	return tr.b, err
}

func (tr *tableRows) End(windowdb.Ending) *windowdb.QueryMetrics {
	tr.b.Clear()
	tableBatches.Put(tr.b)
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
// column, a column that is typed in the first half of the rows and mixed
// in the second. Its cols columns repeat those six in turn.
func wireTable(rows, cols int) *storage.Table {
	layouts := []storage.Column{
		{Name: "i", Type: storage.TypeInt},
		{Name: "f", Type: storage.TypeFloat},
		{Name: "s", Type: storage.TypeString},
		{Name: "n", Type: storage.TypeInt},
		{Name: "m", Type: storage.TypeString},
		{Name: "sparse", Type: storage.TypeInt},
	}
	schema := make([]storage.Column, cols)
	for c := range schema {
		schema[c] = layouts[c%len(layouts)]
		schema[c].Name += strconv.Itoa(c)
	}
	t := storage.NewTable(storage.NewSchema(schema...))
	for i := 0; i < rows; i++ {
		six := storage.Tuple{
			storage.Int(math.MaxInt64 - int64(i)),
			storage.Float(float64(i) / 3),
			storage.StringVal(strings.Repeat("s", i%5)),
			storage.Null,
			storage.Int(int64(i)),
			storage.Null,
		}
		if i%4 == 1 {
			six[1], six[2] = storage.Null, storage.Null
		}
		if i >= rows/2 && i%50 == 0 {
			six[4] = storage.StringVal("mixed") // typed in the first frame, mixed later
		}
		if i%97 == 0 {
			six[5] = storage.Int(int64(-i))
		}
		row := make(storage.Tuple, cols)
		for c := range row {
			row[c] = six[c%len(six)]
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// TestBinaryStreamBytesAreBatchFromTuples is the golden test of the wire:
// what WriteStream frames out of a cursor's batches — gathered column by
// column into one reused batch, truncated where max_rows says — is byte
// for byte BatchFromTuples + AppendBatch over the same rows at the same
// batch boundaries, the encoding every reader since WCF1 has decoded. The
// widths reach both ends of the rule: 1 and 2 columns batch 4096 rows, 6
// columns 1365, 32 and 33 columns 256.
func TestBinaryStreamBytesAreBatchFromTuples(t *testing.T) {
	for _, cols := range []int{1, 2, 6, 32, 33} {
		t.Run(strconv.Itoa(cols), func(t *testing.T) { streamBytesAreBatchFromTuples(t, cols) })
	}
}

func streamBytesAreBatchFromTuples(t *testing.T, cols int) {
	batch := stream.BatchRows(cols)
	table := wireTable(3*batch+71, cols)
	for _, maxRows := range []int{0, 300, batch, batch + 1, 2 * batch} {
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
		for off := 0; ; off += batch {
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
			b, err := stream.BatchFromTuples(rows[off:min(off+batch, len(rows))], table.Schema.Len())
			if err != nil {
				t.Fatal(err)
			}
			if want := stream.AppendBatch(nil, b); !bytes.Equal(f.Payload, want) {
				t.Fatalf("max_rows %d: the frame at row %d differs from BatchFromTuples+AppendBatch", maxRows, off)
			}
		}
	}
}

// TestWideStringsCrossTheWire: a result whose one batch holds more string
// bytes than a frame may carry — 32 KiB strings, more than MaxFramePayload
// of them — is served in the binary codec and read back whole: the writer
// ends a frame once its strings reach stream.BatchBytes.
func TestWideStringsCrossTheWire(t *testing.T) {
	const width = 32 << 10
	rows := stream.MaxFramePayload/width + 100
	if rows > stream.BatchRows(2) {
		t.Fatalf("%d rows do not fit one batch of %d", rows, stream.BatchRows(2))
	}
	letters := make([]byte, rows+width)
	for i := range letters {
		letters[i] = byte('a' + (i*i+i/7)%26)
	}
	base := string(letters) // every row's string is a window of it
	wide := storage.NewTable(storage.NewSchema(
		storage.Column{Name: "id", Type: storage.TypeInt},
		storage.Column{Name: "s", Type: storage.TypeString},
	))
	for i := 0; i < rows; i++ {
		wide.Rows = append(wide.Rows, storage.Tuple{storage.Int(int64(i)), storage.StringVal(base[i : i+width])})
	}
	eng := windowdb.New(windowdb.Config{SortMemBytes: 4 << 20, Parallelism: 1})
	eng.Register("wide", wide)
	srv := httptest.NewServer(New(eng, Config{Slots: 1}).Handler())
	defer srv.Close()

	sr, err := OpenStream(context.Background(), srv.Client(), srv.URL+"/query", queryRequest{SQL: `SELECT id, s FROM wide`, Stream: true}, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	n, frames := 0, 0
	for ; ; frames++ {
		b, err := sr.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("after %d rows: %v", n, err)
		}
		ids, strs := b.Cols()[0].Ints, b.Cols()[1].Strs
		if len(strs)*width > stream.BatchBytes+width {
			t.Fatalf("a frame of %d strings of %d bytes", len(strs), width)
		}
		for i, id := range ids {
			if id != int64(n) || strs[i] != base[n:n+width] {
				t.Fatalf("row %d came as id %d and a string that differs", n, id)
			}
			n++
		}
	}
	if n != rows {
		t.Fatalf("%d rows came through, want %d", n, rows)
	}
	t.Logf("%d rows of %d-byte strings came in %d frames", n, width, frames)
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
func batchBytes(w int) uint64 { return uint64(stream.BatchRows(w) * w * (16 + 1)) }

// framingAllocs reports the bytes WriteStream allocates framing frames
// full batches of numericTable.
func framingAllocs(frames int) uint64 {
	table := numericTable(frames * stream.BatchRows(3))
	w := &sink{hdr: http.Header{}}
	w.body.Grow(frames << 16) // the sink's own growth is not the writer's
	return allocatedBy(func() {
		WriteStream(context.Background(), w, newTableRows(table), 0, CodecBinary)
	})
}

// TestStreamWriterAllocatesPerBatchNotPerRow — framing an 80-frame cursor
// allocates what the first frame does: the cursor's one batch, the frame
// buffer, the header and trailer. The 79 frames after it add nothing that
// scales: 80 frames allocate less than one batch more than 20 do, and the
// whole is under 8 batches' worth; the tuple-staging writer allocated two
// slabs and a batch per frame.
func TestStreamWriterAllocatesPerBatchNotPerRow(t *testing.T) {
	framingAllocs(1) // the writer, the batch and their lists
	few, got := framingAllocs(20), framingAllocs(80)
	if limit := 8 * batchBytes(3); got > limit {
		t.Fatalf("framing 80 frames allocated %d bytes, want at most %d (8 batches' worth)", got, limit)
	}
	if got > few+batchBytes(3) {
		t.Fatalf("framing 80 frames allocated %d bytes and 20 frames %d: the 60 between add more than one batch (%d)", got, few, batchBytes(3))
	}
	t.Logf("framing 20 and 80 frames allocated %d and %d bytes; one batch is at most %d", few, got, batchBytes(3))
}

// decodingAllocs reports the bytes a StreamReader allocates draining a
// binary stream of frames full batches of numericTable.
func decodingAllocs(t *testing.T, frames int) uint64 {
	table := numericTable(frames * stream.BatchRows(3))
	w := &sink{hdr: http.Header{}}
	WriteStream(context.Background(), w, newTableRows(table), 0, CodecBinary)
	resp := &http.Response{
		Header: http.Header{"Content-Type": {ContentTypeBinary}},
		Body:   io.NopCloser(bytes.NewReader(w.body.Bytes())),
	}
	var got, rows int
	alloc := allocatedBy(func() {
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
			got++
			rows += b.Len()
		}
	})
	if got != frames || rows != table.Len() {
		t.Fatalf("%d frames, %d rows, want %d and %d", got, rows, frames, table.Len())
	}
	return alloc
}

// TestStreamReaderAllocatesItsVectorsOnce — 80 frames decode into the
// reader's one batch, and the reader adds no read buffer of its own: the
// whole drain allocates a few batches' worth, not one per frame, and 80
// frames less than one batch more than 20.
func TestStreamReaderAllocatesItsVectorsOnce(t *testing.T) {
	decodingAllocs(t, 1) // the reader, its batch and their lists
	few, got := decodingAllocs(t, 20), decodingAllocs(t, 80)
	if limit := 8 * batchBytes(3); got > limit {
		t.Fatalf("decoding 80 frames allocated %d bytes, want at most %d (8 batches' worth)", got, limit)
	}
	if got > few+batchBytes(3) {
		t.Fatalf("decoding 80 frames allocated %d bytes and 20 frames %d: the 60 between add more than one batch (%d)", got, few, batchBytes(3))
	}
	t.Logf("decoding 20 and 80 frames allocated %d and %d bytes; one batch is at most %d", few, got, batchBytes(3))
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
