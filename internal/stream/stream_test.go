package stream

import (
	"testing"

	"repro/internal/storage"
)

func rows(vals ...int64) []storage.Tuple {
	out := make([]storage.Tuple, len(vals))
	for i, v := range vals {
		out[i] = storage.Tuple{storage.Int(v)}
	}
	return out
}

func TestFromTuplesSingleSegment(t *testing.T) {
	s := FromTuples(rows(1, 2, 3))
	collected, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(collected) != 3 {
		t.Fatalf("rows = %d", len(collected))
	}
	if !collected[0].Boundary || collected[1].Boundary || collected[2].Boundary {
		t.Errorf("boundaries wrong: %+v", collected)
	}
}

// TestSegments — Segments cuts a stream at its boundaries.
func TestSegments(t *testing.T) {
	segs, err := Segments(FromArray(rows(1, 2, 3, 4, 5, 6), []int{2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 || len(segs[0]) != 2 || len(segs[1]) != 1 || len(segs[2]) != 3 {
		t.Fatalf("segments = %v", segs)
	}
}

func TestCollectTuples(t *testing.T) {
	tuples, err := CollectTuples(FromTuples(rows(9, 8)))
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 2 || tuples[0][0].Int64() != 9 {
		t.Fatalf("tuples = %v", tuples)
	}
}

// TestCollectCopiesBackingTuplesAliases — the collectors hand back a slice
// of their own whatever the stream; only BackingTuples aliases the input,
// only for a FromTuples stream, and only its unread part.
func TestCollectCopiesBackingTuplesAliases(t *testing.T) {
	in := rows(1, 2, 3)
	got, err := CollectTuples(FromTuples(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || &got[0] == &in[0] {
		t.Fatalf("CollectTuples returned the stream's backing slice (len %d)", len(got))
	}

	s := FromTuples(in)
	s.Next()
	rest, ok := BackingTuples(s)
	if !ok || len(rest) != 2 || &rest[0] != &in[1] {
		t.Fatalf("BackingTuples = %v, %v; want the unread tail of the input", rest, ok)
	}
	if _, more := s.Next(); more {
		t.Fatal("stream not drained by BackingTuples")
	}

	tagged := FromRows([]Row{{Tuple: in[0], Boundary: true}})
	if _, ok := BackingTuples(tagged); ok {
		t.Fatal("BackingTuples accepted a stream that has no tuple slice")
	}
	if Remaining(tagged) != 1 {
		t.Fatal("BackingTuples consumed a stream it rejected")
	}
}

// TestFromArray — an array stream flags the first row and the listed
// starts, leaves the caller's list alone, counts what is left, and gives
// its unread rows up for writing to ArrayTuples alone: BackingTuples hands
// out read-only aliases and must not take a stream as one, and a FromTuples
// slice is nobody's to sort in place.
func TestFromArray(t *testing.T) {
	in, starts := rows(1, 2, 3, 4, 5), []int{2, 3}
	s := FromArray(in, starts)
	if n := Remaining(s); n != 5 {
		t.Fatalf("Remaining = %d before the first row", n)
	}
	s.Next()
	if _, ok := BackingTuples(s); ok || Remaining(s) != 4 {
		t.Fatal("BackingTuples took an array stream")
	}
	rest, ok := ArrayTuples(s)
	if !ok || len(rest) != 4 || &rest[0] != &in[1] || Remaining(s) != 0 {
		t.Fatalf("ArrayTuples = %v, %v; want the unread tail of the array", rest, ok)
	}
	if _, ok := ArrayTuples(FromTuples(in)); ok {
		t.Fatal("ArrayTuples took a read-only tuple stream")
	}
	collected, err := Collect(FromArray(in, starts))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range collected {
		if want := i == 0 || i == 2 || i == 3; r.Boundary != want {
			t.Fatalf("row %d: boundary %v, want %v", i, r.Boundary, want)
		}
	}
	if len(collected) != 5 || starts[0] != 2 || starts[1] != 3 {
		t.Fatalf("%d rows collected, starts now %v", len(collected), starts)
	}
}

func TestEmptyStream(t *testing.T) {
	segs, err := Segments(FromTuples(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 {
		t.Fatalf("segments of empty stream = %d", len(segs))
	}
	r, ok := FromRows(nil).Next()
	if ok {
		t.Fatalf("empty stream yielded %v", r)
	}
}
