package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/storage"
)

// frameTuples is a torture set for the columnar codec: int64s past 2^53,
// negatives, NaN-free floats, empty and multi-byte strings, NULLs in every
// column, and a kind-heterogeneous final column.
func frameTuples() []storage.Tuple {
	return []storage.Tuple{
		{storage.Int(1), storage.Float(1.5), storage.StringVal("a"), storage.Int(7)},
		{storage.Int(-9_007_199_254_740_993), storage.Null, storage.StringVal(""), storage.StringVal("mixed")},
		{storage.Null, storage.Float(math.MaxFloat64), storage.StringVal("héllo\nworld"), storage.Null},
		{storage.Int(math.MaxInt64), storage.Float(-0.0), storage.Null, storage.Float(2.25)},
		{storage.Int(math.MinInt64), storage.Float(1e-308), storage.StringVal(strings.Repeat("x", 300)), storage.Int(0)},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	tuples := frameTuples()
	b, err := BatchFromTuples(tuples, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != len(tuples) || b.Arity() != 4 {
		t.Fatalf("batch %dx%d, want %dx4", b.Len(), b.Arity(), len(tuples))
	}
	if b.Cols()[3].Mixed == nil {
		t.Fatalf("heterogeneous column did not fall back to mixed layout")
	}
	payload := AppendBatch(nil, b)
	got, err := DecodeBatch(payload, 4)
	if err != nil {
		t.Fatal(err)
	}
	back := got.Tuples()
	if len(back) != len(tuples) {
		t.Fatalf("decoded %d rows, want %d", len(back), len(tuples))
	}
	for i := range tuples {
		for c := range tuples[i] {
			w, g := tuples[i][c], back[i][c]
			if w.Kind() != g.Kind() || !storage.Equal(w, g) {
				t.Fatalf("row %d col %d: got %v (%v), want %v (%v)", i, c, g, g.Kind(), w, w.Kind())
			}
		}
	}
}

func TestBatchRoundTripEdges(t *testing.T) {
	cases := [][]storage.Tuple{
		nil,                              // empty batch
		{{}, {}},                         // zero-arity rows
		{{storage.Null}, {storage.Null}}, // all-NULL column
		{{storage.Int(1)}, {storage.Null}, {storage.Int(2)}}, // nullable int
	}
	for i, tuples := range cases {
		arity := 0
		if len(tuples) > 0 {
			arity = len(tuples[0])
		}
		b, err := BatchFromTuples(tuples, arity)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got, err := DecodeBatch(AppendBatch(nil, b), arity)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		back := got.Tuples()
		if len(back) != len(tuples) {
			t.Fatalf("case %d: %d rows, want %d", i, len(back), len(tuples))
		}
		for r := range tuples {
			for c := range tuples[r] {
				if !storage.Equal(tuples[r][c], back[r][c]) {
					t.Fatalf("case %d row %d col %d mismatch", i, r, c)
				}
			}
		}
	}
}

func TestBatchArityMismatch(t *testing.T) {
	_, err := BatchFromTuples([]storage.Tuple{{storage.Int(1)}, {}}, 1)
	if err == nil {
		t.Fatal("want arity error")
	}
}

// TestBatchRowsFillsABlock: a batch is as many rows as fill 64 KiB at 8
// bytes a cell, clamped to 256..4096 — never more cells than
// max(8192, 256·cols) — and a full batch of any width frames and decodes
// within the reader's bounds, which are what they were when batches were
// 256 rows.
func TestBatchRowsFillsABlock(t *testing.T) {
	for cols, want := range map[int]int{0: 4096, 1: 4096, 2: 4096, 3: 2730, 5: 1638, 8: 1024, 32: 256, 33: 256, 1000: 256} {
		if got := BatchRows(cols); got != want {
			t.Errorf("BatchRows(%d) = %d, want %d", cols, got, want)
		}
	}
	for _, cols := range []int{1, 2, 3, 8, 31, 33, 200} {
		rows := BatchRows(cols)
		if cells := rows * cols; cells > max(8192, 256*cols) || cells > maxBatchCells || rows > maxBatchRows {
			t.Fatalf("%d columns: %d rows, %d cells", cols, rows, cells)
		}
		b := &Batch{}
		b.Reset(cols, rows)
		for c := 0; c < cols; c++ {
			vals := make([]storage.Value, rows)
			for i := range vals {
				vals[i] = storage.Int(int64(i * c))
			}
			b.SetValues(c, vals)
		}
		got, err := DecodeBatch(AppendBatch(nil, b), cols)
		if err != nil {
			t.Fatalf("%d columns: a full batch does not decode: %v", cols, err)
		}
		if got.Len() != rows {
			t.Fatalf("%d columns: a full batch decodes to %d rows, want %d", cols, got.Len(), rows)
		}
	}
}

// TestWideStringsSplitIntoFrames: a batch whose strings reach BatchBytes
// leaves in several frames, each ending at the row that brings its strings
// to BatchBytes, and the frames decode to the batch's rows in order —
// NULLs, an all-NULL column and a mixed column included. A batch whose
// strings stay under BatchBytes is one frame, AppendBatch's bytes.
func TestWideStringsSplitIntoFrames(t *testing.T) {
	var tuples []storage.Tuple
	for i := 0; i < 200; i++ {
		row := storage.Tuple{storage.Int(int64(i)), storage.StringVal(strings.Repeat(string(rune('a'+i%26)), (i%9)<<11)), storage.Null, storage.Int(int64(i))}
		if i%5 == 0 {
			row[0] = storage.Null
		}
		if i%7 == 0 {
			row[1] = storage.Null
		}
		if i%2 == 0 {
			row[3] = storage.StringVal(strings.Repeat("m", 1000+i))
		}
		tuples = append(tuples, row)
	}
	rowBytes := func(t storage.Tuple) int {
		n := 0
		for _, v := range t {
			if v.Kind() == storage.KindString {
				n += len(v.Str())
			}
		}
		return n
	}
	b, err := BatchFromTuples(tuples, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := NewFrameWriter(&buf).WriteBatch(b); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf)
	var back []storage.Tuple
	for {
		f, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBatch(f.Payload, 4)
		if err != nil {
			t.Fatal(err)
		}
		rows := got.Tuples()
		n := 0
		for _, row := range rows {
			n += rowBytes(row)
		}
		last := len(back)+len(rows) == len(tuples)
		if n-rowBytes(rows[len(rows)-1]) >= BatchBytes || n < BatchBytes && !last {
			t.Fatalf("a frame of %d rows holds %d string bytes, its last row %d", len(rows), n, rowBytes(rows[len(rows)-1]))
		}
		back = append(back, rows...)
	}
	if len(back) != len(tuples) {
		t.Fatalf("the frames hold %d rows, want %d", len(back), len(tuples))
	}
	for i := range tuples {
		for c := range tuples[i] {
			if w, g := tuples[i][c], back[i][c]; w.Kind() != g.Kind() || !storage.Equal(w, g) {
				t.Fatalf("row %d col %d: got %v, want %v", i, c, g, w)
			}
		}
	}

	small, err := BatchFromTuples([]storage.Tuple{{storage.StringVal(strings.Repeat("x", BatchBytes/2))}, {storage.StringVal(strings.Repeat("y", BatchBytes/2-1))}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := NewFrameWriter(&buf).WriteBatch(small); err != nil {
		t.Fatal(err)
	}
	if want := AppendBatch(nil, small); !bytes.Equal(buf.Bytes()[len(FrameMagic)+frameHeaderLen:], want) {
		t.Fatalf("a batch of %d string bytes did not leave as one AppendBatch frame", BatchBytes-1)
	}
}

func TestFrameStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.WriteHeader([]byte(`{"columns":[]}`)); err != nil {
		t.Fatal(err)
	}
	tuples := frameTuples()
	if err := fw.WriteTuples(tuples[:3], 4); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteTuples(tuples[3:], 4); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteTrailer([]byte(`{"done":true}`)); err != nil {
		t.Fatal(err)
	}

	fr := NewFrameReader(&buf)
	f, err := fr.Next()
	if err != nil || f.Type != FrameHeader || string(f.Payload) != `{"columns":[]}` {
		t.Fatalf("header frame: %v %+v", err, f)
	}
	var rows []storage.Tuple
	for {
		f, err = fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type == FrameTrailer {
			break
		}
		if f.Type != FrameBatch {
			t.Fatalf("unexpected frame type %c", f.Type)
		}
		b, err := DecodeBatch(f.Payload, 4)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, b.Tuples()...)
	}
	if string(f.Payload) != `{"done":true}` {
		t.Fatalf("trailer payload %q", f.Payload)
	}
	if len(rows) != len(tuples) {
		t.Fatalf("decoded %d rows, want %d", len(rows), len(tuples))
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after trailer: %v, want io.EOF", err)
	}
}

func TestFrameReaderCutAndCorrupt(t *testing.T) {
	var full bytes.Buffer
	fw := NewFrameWriter(&full)
	_ = fw.WriteHeader([]byte(`{}`))
	_ = fw.WriteTuples(frameTuples(), 4)
	raw := full.Bytes()

	// Every strict prefix must end in a cut-stream error — except a cut
	// exactly on a frame boundary, which is clean io.EOF at this layer
	// (trailer presence is the stream *reader*'s contract, service side).
	boundaries := map[int]bool{4: true, 4 + 5 + 2: true} // after magic; after header frame
	for cut := 0; cut < len(raw); cut++ {
		fr := NewFrameReader(bytes.NewReader(raw[:cut]))
		for {
			_, err := fr.Next()
			if err == nil {
				continue
			}
			if err == io.EOF && !boundaries[cut] {
				t.Fatalf("cut %d: clean EOF inside a truncated frame", cut)
			}
			break
		}
	}

	// Corrupt magic.
	bad := append([]byte("XXXX"), raw[4:]...)
	if _, err := NewFrameReader(bytes.NewReader(bad)).Next(); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("bad magic: %v", err)
	}

	// Corrupt frame type.
	bad = bytes.Clone(raw)
	bad[4] = 'Z'
	if _, err := NewFrameReader(bytes.NewReader(bad)).Next(); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("bad frame type: %v", err)
	}

	// Oversized declared payload.
	bad = bytes.Clone(raw)
	bad[5], bad[6], bad[7], bad[8] = 0xff, 0xff, 0xff, 0xff
	if _, err := NewFrameReader(bytes.NewReader(bad)).Next(); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("oversized payload: %v", err)
	}
}

func TestDecodeBatchRejectsCorruption(t *testing.T) {
	b, err := BatchFromTuples(frameTuples(), 4)
	if err != nil {
		t.Fatal(err)
	}
	payload := AppendBatch(nil, b)

	// Every strict prefix must error, not panic.
	for cut := 0; cut < len(payload); cut++ {
		if _, err := DecodeBatch(payload[:cut], 4); err == nil {
			t.Fatalf("prefix %d decoded cleanly", cut)
		}
	}
	// Wrong arity: either errors or consumes a different layout — must not
	// panic; trailing bytes are rejected.
	if _, err := DecodeBatch(payload, 3); err == nil {
		t.Fatal("short arity decoded cleanly with trailing bytes")
	}
	// Hostile row count (uvarint ≫ maxBatchRows) with no backing data.
	if _, err := DecodeBatch(append([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}, 0, 0), 1); err == nil {
		t.Fatal("hostile row count decoded cleanly")
	}
}

// capturedStream is what the writer of the commit before batches were
// reused produced for frameTuples: a header, the first three rows, the
// last two, a trailer. A client built then is handed exactly these bytes
// by a server built now, and a client built now reads what that server
// wrote.
var capturedStream = "57434631480e0000007b22636f6c756d6e73223a5b5d7d" +
	"4245000000030101040100000000000000ffffffffffffdfff020102000000000000f83fffffffffffffef7f" +
	"03000161000c68c3a96c6c6f0a776f726c640400010e03056d6978656400" +
	"4263010000020100ffffffffffffff7f000000000000008002000000000000000000d2e81978d63007000301" +
	"01ac02" + xs300 + "04000200000000000002400100" +
	"540d0000007b22646f6e65223a747275657d"

var xs300 = strings.Repeat("78", 300)

func TestCapturedStreamBytes(t *testing.T) {
	want, err := hex.DecodeString(capturedStream)
	if err != nil {
		t.Fatal(err)
	}
	tuples := frameTuples()

	// One writer, its batch refilled per frame, under the poison switch: a
	// slot the second fill did not write would carry a sentinel out.
	defer PoisonReused()()
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	_ = fw.WriteHeader([]byte(`{"columns":[]}`))
	_ = fw.WriteTuples(tuples[:3], 4)
	_ = fw.WriteTuples(tuples[3:], 4)
	_ = fw.WriteTrailer([]byte(`{"done":true}`))
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("stream bytes changed:\n got %x\nwant %x", buf.Bytes(), want)
	}

	// One reader batch, decoded into per frame.
	fr := NewFrameReader(bytes.NewReader(want))
	var b Batch
	var rows []storage.Tuple
	for {
		f, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != FrameBatch {
			continue
		}
		if err := DecodeBatchInto(&b, f.Payload, 4); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, b.Tuples()...)
	}
	if len(rows) != len(tuples) {
		t.Fatalf("decoded %d rows, want %d", len(rows), len(tuples))
	}
	for i := range tuples {
		for c := range tuples[i] {
			if !storage.Identical(rows[i][c], tuples[i][c]) {
				t.Fatalf("row %d col %d = %v, want %v", i, c, rows[i][c], tuples[i][c])
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

// TestDecodeBatchBoundsAllocation — a frame cannot make the decoder
// allocate vectors its bytes do not back. The first payload is the one
// that used to amplify 72×: 2 Mi rows by 8 int columns whose validity
// bitmaps say all-NULL, 2 MB on the wire, 144 MB of N-aligned vectors.
func TestDecodeBatchBoundsAllocation(t *testing.T) {
	allNull := func(rows, cols int) []byte {
		p := binary.AppendUvarint(nil, uint64(rows))
		bitmap := bytes.Repeat([]byte{0xff}, (rows+7)/8)
		for c := 0; c < cols; c++ {
			p = append(append(p, 1, 1), bitmap...)
		}
		return p
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		arity   int
	}{
		{"2Mi rows of all-NULL int columns", allNull(1<<21, 8), 8},
		{"more cells than a frame may declare", allNull(1<<16, 128), 128},
		{"a NULL-free int column with no values behind it", append(binary.AppendUvarint(nil, 1<<16), 1, 0), 1},
		{"a NULL-free string column with no values behind it", append(binary.AppendUvarint(nil, 1<<16), 3, 0), 1},
		{"a mixed column with no values behind it", append(binary.AppendUvarint(nil, 1<<16), 4, 0), 1},
		{"more columns than bytes", binary.AppendUvarint(nil, 1), 1 << 20},
	} {
		var err error
		got := allocatedBy(func() { _, err = DecodeBatch(tc.payload, tc.arity) })
		if !errors.Is(err, ErrFrameCorrupt) {
			t.Errorf("%s: err = %v, want ErrFrameCorrupt", tc.name, err)
		}
		if limit := uint64(len(tc.payload)) + 64<<10; got > limit {
			t.Errorf("%s: decoding %d bytes allocated %d", tc.name, len(tc.payload), got)
		}
	}

	// What a frame can legitimately ask for stays a fixed multiple of its
	// length: the sparsest column there is — one value in 64 Ki rows.
	sparse := binary.AppendUvarint(nil, 1<<16)
	bitmap := bytes.Repeat([]byte{0xff}, 1<<13)
	bitmap[0] = 0xfe
	sparse = append(append(append(sparse, 1, 1), bitmap...), 42, 0, 0, 0, 0, 0, 0, 0)
	var b *Batch
	var err error
	got := allocatedBy(func() { b, err = DecodeBatch(sparse, 1) })
	if err != nil || b.Len() != 1<<16 || b.Cols()[0].Ints[0] != 42 || !b.Cols()[0].Null[1] {
		t.Fatalf("sparse column: %v", err)
	}
	if limit := uint64(80 * len(sparse)); got > limit {
		t.Errorf("sparse column: decoding %d bytes allocated %d", len(sparse), got)
	}
}

// TestBatchRefillEqualsFresh — a batch filled over whatever an earlier
// fill left (poisoned, so that it is never by luck) encodes to the bytes a
// new batch of the same rows does, and so does one cut short by Truncate:
// inference runs again on the prefix.
func TestBatchRefillEqualsFresh(t *testing.T) {
	defer PoisonReused()()
	rng := rand.New(rand.NewSource(16))
	random := func(n int) []storage.Tuple {
		out := make([]storage.Tuple, n)
		// Per column: how likely a NULL is, and whether kinds mix.
		nullP := []float64{0, 0.3, 1, 0.1, 0.9}
		for i := range out {
			row := make(storage.Tuple, len(nullP))
			for c := range row {
				switch {
				case rng.Float64() < nullP[c]:
				case c == 3 && rng.Intn(40) == 0:
					row[c] = storage.Float(rng.Float64())
				case c == 4:
					row[c] = storage.StringVal(strings.Repeat("s", rng.Intn(4)))
				default:
					row[c] = storage.Int(rng.Int63())
				}
			}
			out[i] = row
		}
		return out
	}
	fresh := func(rows []storage.Tuple) []byte {
		b, err := BatchFromTuples(rows, 5)
		if err != nil {
			t.Fatal(err)
		}
		return AppendBatch(nil, b)
	}
	var b Batch
	for round := 0; round < 200; round++ {
		rows := random(rng.Intn(70))
		if err := b.FillTuples(rows, 5); err != nil {
			t.Fatal(err)
		}
		if got, want := AppendBatch(nil, &b), fresh(rows); !bytes.Equal(got, want) {
			t.Fatalf("round %d: a refilled batch of %d rows encodes differently from a new one", round, len(rows))
		}
		k := rng.Intn(len(rows) + 1)
		b.Truncate(k)
		if got, want := AppendBatch(nil, &b), fresh(rows[:k]); !bytes.Equal(got, want) {
			t.Fatalf("round %d: %d rows truncated to %d encode differently from a new batch of %d", round, len(rows), k, k)
		}
		// Gathered through positions — a selection, permuted — a batch is
		// what filling it with the selected rows builds; column 0 goes the
		// vector way.
		pos := rng.Perm(len(rows))[:k]
		picked, col0 := make([]storage.Tuple, k), make([]storage.Value, len(rows))
		for i, at := range pos {
			picked[i] = rows[at]
		}
		for i, row := range rows {
			col0[i] = row[0]
		}
		b.Reset(5, k)
		b.GatherValues(0, col0, pos)
		for c := 1; c < 5; c++ {
			b.GatherTuples(c, rows, c, pos)
		}
		if got, want := AppendBatch(nil, &b), fresh(picked); !bytes.Equal(got, want) {
			t.Fatalf("round %d: %d of %d rows gathered encode differently from a new batch of them", round, k, len(rows))
		}
	}
}

func TestBatcher(t *testing.T) {
	boom := errors.New("boom")
	feed := func(n int, end error) func() (storage.Tuple, error) {
		i := 0
		return func() (storage.Tuple, error) {
			if i == n {
				return nil, end
			}
			i++
			return storage.Tuple{storage.Int(int64(i))}, nil
		}
	}
	for _, tc := range []struct {
		rows, max int
		end       error
		sizes     []int
	}{
		{0, 4, io.EOF, nil},
		{3, 4, io.EOF, []int{3}},
		{8, 4, io.EOF, []int{4, 4}},
		{9, 4, boom, []int{4, 4, 1}}, // the rows before an error come out first
		{3, 1, io.EOF, []int{1, 1, 1}},
	} {
		tb := NewBatcher(1, tc.max, feed(tc.rows, tc.end))
		next := int64(1)
		for _, size := range tc.sizes {
			b, err := tb.NextBatch()
			if err != nil || b.Len() != size {
				t.Fatalf("%+v: batch of %d rows, err %v, want %d", tc, b.Len(), err, size)
			}
			for _, v := range b.Cols()[0].Ints {
				if v != next {
					t.Fatalf("%+v: row %d out of order", tc, v)
				}
				next++
			}
		}
		for i := 0; i < 2; i++ {
			if _, err := tb.NextBatch(); err != tc.end {
				t.Fatalf("%+v: after the rows: %v, want %v", tc, err, tc.end)
			}
		}
	}
}

// TestPoisonReusedHasTeeth: under the switch, a vector held across a
// refill reads as the sentinel, not as the old or the new rows.
func TestPoisonReusedHasTeeth(t *testing.T) {
	defer PoisonReused()()
	var b Batch
	if err := b.FillTuples([]storage.Tuple{{storage.Int(1), storage.StringVal("one")}, {storage.Int(2), storage.StringVal("two")}}, 2); err != nil {
		t.Fatal(err)
	}
	ints, strs := b.Cols()[0].Ints, b.Cols()[1].Strs
	if err := b.FillTuples([]storage.Tuple{{storage.Int(3), storage.StringVal("three")}}, 2); err != nil {
		t.Fatal(err)
	}
	if ints[1] != poisonInt || strs[1] != poisonStr {
		t.Fatalf("a held vector reads %d, %q after the refill", ints[1], strs[1])
	}
	if b.Cols()[0].Ints[0] != 3 || b.Cols()[1].Strs[0] != "three" {
		t.Fatal("the refill itself is poisoned")
	}
}
