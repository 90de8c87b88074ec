package storage

import (
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzArenaDecode feeds arbitrary bytes — what a corrupt or truncated spill
// page would hand a reader — to TupleArena.Decode, into a private and a
// pooled arena that each hold a row already. On any input it returns a
// tuple or an ErrCorrupt and never panics; on error it consumes nothing,
// leaving the carving position where it was; and it agrees with DecodeTuple,
// the allocating decoder: both fail, or both read the same values from the
// same number of bytes, and those values re-encode to bytes that decode to
// them again.
func FuzzArenaDecode(f *testing.F) {
	f.Add(AppendTuple(nil, Tuple{Int(-7), Float(2.5), StringVal("row"), Null, StringVal("")}))
	f.Add(binary.AppendUvarint(nil, 1<<62)) // an arity no buffer can hold
	pastEnd := append(binary.AppendUvarint(nil, 1), byte(KindString))
	pastEnd = append(binary.AppendUvarint(pastEnd, 1<<40), "abc"...) // a string length past the buffer
	f.Add(pastEnd)

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantN, wantErr := DecodeTuple(data)
		pooled := NewPooledTupleArena(3)
		defer pooled.Recycle()
		for _, arena := range []*TupleArena{NewTupleArena(3), pooled} {
			held := arena.Copy(Tuple{Int(1), StringVal("held")})
			at := arena.Mark()
			got, n, err := arena.Decode(data)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("Decode err = %v, DecodeTuple err = %v", err, wantErr)
			}
			if !Identical(held[0], Int(1)) || !Identical(held[1], StringVal("held")) {
				t.Fatalf("the row carved before the decode reads %v", held)
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Decode err = %v, want an ErrCorrupt", err)
				}
				if arena.Mark() != at {
					t.Fatalf("a failed decode moved the arena from %+v to %+v", at, arena.Mark())
				}
				continue
			}
			if n != wantN || len(got) != len(want) {
				t.Fatalf("Decode read %d columns from %d bytes, DecodeTuple %d from %d", len(got), n, len(want), wantN)
			}
			for c := range want {
				if !Identical(got[c], want[c]) {
					t.Fatalf("col %d: Decode %s %q, DecodeTuple %s %q", c, got[c].Kind(), got[c], want[c].Kind(), want[c])
				}
			}
			enc := AppendTuple(nil, got)
			back, m, err := DecodeTuple(enc)
			if err != nil || m != len(enc) || len(back) != len(got) {
				t.Fatalf("re-encoded tuple: %d columns from %d of %d bytes, err %v", len(back), m, len(enc), err)
			}
			for c := range got {
				if !Identical(back[c], got[c]) {
					t.Fatalf("col %d re-decodes as %q, was %q", c, back[c], got[c])
				}
			}
		}
	})
}
