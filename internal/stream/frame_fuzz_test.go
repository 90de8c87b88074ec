package stream

import (
	"bytes"
	"io"
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
// under a NULL slot, the tail of a longer batch — can show through.
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
		fr := NewFrameReader(bytes.NewReader(data))
		var reused Batch
		for i := 0; i < 64; i++ {
			fm, err := fr.Next()
			if err != nil {
				if err == io.EOF || err == io.ErrUnexpectedEOF {
					break
				}
				// Any other error must be a descriptive decode failure;
				// reaching here without panicking is the contract.
				break
			}
			if fm.Type != FrameBatch {
				continue
			}
			b, err := DecodeBatch(fm.Payload, arity)
			intoErr := DecodeBatchInto(&reused, fm.Payload, arity)
			if (err == nil) != (intoErr == nil) {
				t.Fatalf("DecodeBatch: %v, DecodeBatchInto: %v", err, intoErr)
			}
			if err != nil {
				if reused.Len() != 0 || reused.Arity() != 0 {
					t.Fatalf("a failed decode left %d rows by %d columns behind", reused.Len(), reused.Arity())
				}
				continue
			}
			sameBatch(t, &reused, b)
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
	})
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
