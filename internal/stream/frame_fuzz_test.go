package stream

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/storage"
)

// FuzzFrameDecode holds the binary wire decoder to its no-panic contract:
// arbitrary bytes fed to the frame reader and the batch payload decoder
// must produce values or errors, never a panic — truncated frames, bad
// type bytes, hostile lengths and validity-bitmap overruns included. Valid
// payloads that decode must re-encode to an equivalent batch. Every batch
// frame is also decoded over one batch kept across the frames of an input
// (DecodeBatchInto), with handed-back vectors poisoned: what comes out must
// be what a new batch decodes to, so nothing of the frame before — a value
// under a NULL slot, the tail of a longer batch — can show through. And the
// whole input is decoded again through one reader and batch kept across
// streams (Reset), after a truncated stream and after a whole one: nothing
// of the stream before may show through either.
func FuzzFrameDecode(f *testing.F) {
	defer PoisonReused()()
	// Seed with well-formed streams so the fuzzer starts at the format's
	// surface instead of random bytes.
	seed := func(tuples []storage.Tuple, arity int) {
		var buf bytes.Buffer
		fw := NewFrameWriter(&buf)
		_ = fw.WriteHeader([]byte(`{"columns":[{"name":"a","type":"INT"}]}`))
		if len(tuples) > 0 {
			_ = fw.WriteTuples(tuples, arity)
		}
		_ = fw.WriteTrailer([]byte(`{"done":true,"row_count":1}`))
		f.Add(buf.Bytes(), arity)
	}
	seed([]storage.Tuple{{storage.Int(42), storage.StringVal("x"), storage.Float(1.5), storage.Null}}, 4)
	seed([]storage.Tuple{
		{storage.Int(1 << 60)},
		{storage.Null},
		{storage.StringVal("mixed kinds")},
	}, 1)
	seed(nil, 0)
	// testdata/fuzz/FuzzFrameDecode adds the multi-frame seeds the reused
	// batch needs: layouts that change between frames, a hostile row count.
	f.Add([]byte("WCF1"), 2)
	f.Add([]byte{}, 1)

	f.Fuzz(func(t *testing.T, data []byte, arity int) {
		if arity < 0 || arity > 64 {
			arity = int(uint(arity) % 65)
		}
		fresh := decodeAll(t, NewFrameReader(bytes.NewReader(data)), &Batch{}, arity)
		// One reader and one batch, Reset between streams, decode the input
		// twice more — once right after a truncated stream left them
		// wherever it stopped, once after a whole one — and must tell
		// exactly what a fresh pair told: nothing of a stream before shows.
		var (
			fr FrameReader
			b  Batch
		)
		for _, in := range [][]byte{data[:len(data)/2], data, data} {
			fr.Reset(bytes.NewReader(in))
			got := decodeAll(t, &fr, &b, arity)
			if len(in) == len(data) && got != fresh {
				t.Fatalf("a reset reader decoded\n%s\na fresh one\n%s", got, fresh)
			}
		}
	})
}

// decodeAll reads up to 64 frames of one stream with fr, decoding every
// batch frame into reused, and returns a transcript of what it read: each
// frame's type and payload, each batch's rows or decode error, and the
// error that ended the stream. Every batch frame is also decoded into a new
// batch: both must agree, a failed decode must leave reused empty, and a
// payload that decodes must round-trip value-identically.
func decodeAll(t *testing.T, fr *FrameReader, reused *Batch, arity int) string {
	var out strings.Builder
	for i := 0; i < 64; i++ {
		fm, err := fr.Next()
		if err != nil {
			// Reaching here without panicking is the contract; any error
			// but a clean or cut end is a descriptive decode failure.
			fmt.Fprintf(&out, "end: %v\n", err)
			break
		}
		fmt.Fprintf(&out, "%c %q\n", fm.Type, fm.Payload)
		if fm.Type != FrameBatch {
			continue
		}
		b, err := DecodeBatch(fm.Payload, arity)
		intoErr := DecodeBatchInto(reused, fm.Payload, arity)
		if (err == nil) != (intoErr == nil) {
			t.Fatalf("DecodeBatch: %v, DecodeBatchInto: %v", err, intoErr)
		}
		if err != nil {
			if reused.Len() != 0 || reused.Arity() != 0 {
				t.Fatalf("a failed decode left %d rows by %d columns behind", reused.Len(), reused.Arity())
			}
			fmt.Fprintf(&out, "  error: %v\n", err)
			continue
		}
		sameBatch(t, reused, b)
		fmt.Fprintf(&out, "  %d rows\n", reused.Len())
		for _, row := range reused.Tuples() {
			fmt.Fprintf(&out, "  %q\n", storage.AppendTuple(nil, row))
		}
		// A payload that decodes must round-trip value-identically.
		re := AppendBatch(nil, b)
		b2, err := DecodeBatch(re, arity)
		if err != nil {
			t.Fatalf("re-encoded batch failed to decode: %v", err)
		}
		if b2.Len() != b.Len() {
			t.Fatalf("round trip changed row count: %d != %d", b2.Len(), b.Len())
		}
		r1, r2 := b.Tuples(), b2.Tuples()
		for r := range r1 {
			for c := range r1[r] {
				if r1[r][c].Kind() != r2[r][c].Kind() || !storage.Equal(r1[r][c], r2[r][c]) {
					t.Fatalf("round trip changed row %d col %d: %v != %v", r, c, r1[r][c], r2[r][c])
				}
			}
		}
	}
	return out.String()
}

// sameBatch holds a decoded-into batch to a newly decoded one: the same
// layout and vectors of exactly Len() slots, the same values, and the zero
// value in every NULL slot of a typed vector.
func sameBatch(t *testing.T, got, want *Batch) {
	t.Helper()
	if got.Len() != want.Len() || got.Arity() != want.Arity() {
		t.Fatalf("reused batch is %dx%d, fresh %dx%d", got.Len(), got.Arity(), want.Len(), want.Arity())
	}
	n := got.Len()
	for c := range want.Cols() {
		g, w := &got.Cols()[c], &want.Cols()[c]
		if g.Kind != w.Kind || (g.Mixed == nil) != (w.Mixed == nil) || (g.Null == nil) != (w.Null == nil) {
			t.Fatalf("col %d: reused layout differs from fresh", c)
		}
		for _, l := range []int{len(g.Null), len(g.Ints), len(g.Floats), len(g.Strs), len(g.Mixed)} {
			if l != 0 && l != n {
				t.Fatalf("col %d: a vector of %d slots in a batch of %d rows", c, l, n)
			}
		}
		for i := 0; i < n; i++ {
			if !storage.Identical(g.Value(i), w.Value(i)) {
				t.Fatalf("col %d row %d: reused %v, fresh %v", c, i, g.Value(i), w.Value(i))
			}
			if g.Null != nil && g.Null[i] {
				if (g.Ints != nil && g.Ints[i] != 0) || (g.Floats != nil && g.Floats[i] != 0) || (g.Strs != nil && g.Strs[i] != "") {
					t.Fatalf("col %d row %d: a stale value under a NULL slot", c, i)
				}
			}
		}
	}
}
