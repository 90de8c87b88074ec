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

// TestCollectTuples — collecting a tuple stream gives its tuples back in
// order, the first one flagged as the start of the single segment.
func TestCollectTuples(t *testing.T) {
	got, err := Collect(FromTuples(rows(9, 8)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Tuple[0].Int64() != 9 || got[1].Tuple[0].Int64() != 8 || !got[0].Boundary || got[1].Boundary {
		t.Fatalf("collected %+v", got)
	}
}

// TestCollectCopiesBackingTuplesAliases — Collect hands back a slice of its
// own, tagged as the stream tagged it, whatever the stream; of a stream
// already partly read it takes only the unread part, and leaves the stream
// drained. (The aliasing BackingTuples collector is gone: no caller reads a
// stream's backing slice any more.)
func TestCollectCopiesBackingTuplesAliases(t *testing.T) {
	in := rows(1, 2, 3)
	tagged := []Row{{Tuple: in[0], Boundary: true}, {Tuple: in[1], Boundary: true}, {Tuple: in[2]}}
	got, err := Collect(FromRows(tagged))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || &got[0] == &tagged[0] {
		t.Fatalf("Collect returned the stream's backing slice (len %d)", len(got))
	}
	if !got[0].Boundary || !got[1].Boundary || got[2].Boundary {
		t.Fatalf("Collect retagged the rows: %+v", got)
	}

	s := FromTuples(in)
	s.Next()
	rest, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 2 || rest[0].Tuple[0].Int64() != 2 || rest[1].Tuple[0].Int64() != 3 || rest[0].Boundary {
		t.Fatalf("Collect after one Next = %+v; want the unread tail of the input", rest)
	}
	if _, more := s.Next(); more {
		t.Fatal("stream not drained by Collect")
	}
}

func TestEmptyStream(t *testing.T) {
	got, err := Collect(FromTuples(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("rows of empty stream = %d", len(got))
	}
	r, ok := FromRows(nil).Next()
	if ok {
		t.Fatalf("empty stream yielded %v", r)
	}
}
