package storage

import (
	"errors"
	"strings"
	"testing"
	"unsafe"
)

// TestArenaExtendStaysInRow: rows decoded into one slab extend in place
// exactly spare times, and no extension — in place or, past the spare
// capacity, copied — reaches the row carved after it.
func TestArenaExtendStaysInRow(t *testing.T) {
	const rows, spare = 600, 2 // several slabs of both kinds
	var buf []byte
	for i := 0; i < rows; i++ {
		buf = AppendTuple(buf, Tuple{Int(int64(i)), StringVal(strings.Repeat("s", i%40)), Float(float64(i) / 2), Null})
	}
	arena := NewTupleArena(spare)
	decoded := make([]Tuple, 0, rows)
	for off := 0; off < len(buf); {
		row, n, err := arena.Decode(buf[off:])
		if err != nil {
			t.Fatal(err)
		}
		if len(row) != 4 || cap(row) != 4+spare {
			t.Fatalf("row %d: len %d cap %d, want 4 and %d", len(decoded), len(row), cap(row), 4+spare)
		}
		decoded = append(decoded, row)
		off += n
	}
	for i, row := range decoded {
		ext := row
		for k := 0; k < spare; k++ {
			ext = ext.Extend(Int(int64(-1000*k - i)))
			if &ext[0] != &row[0] {
				t.Fatalf("row %d: extension %d reallocated", i, k+1)
			}
		}
		over := ext.Extend(StringVal("past the spare capacity"))
		if &over[0] == &row[0] {
			t.Fatalf("row %d grew past its capacity in place", i)
		}
		decoded[i] = ext
	}
	for i, row := range decoded {
		want := Tuple{Int(int64(i)), StringVal(strings.Repeat("s", i%40)), Float(float64(i) / 2), Null, Int(int64(-i)), Int(int64(-1000 - i))}
		if len(row) != len(want) {
			t.Fatalf("row %d has %d columns", i, len(row))
		}
		for j := range want {
			if !Identical(row[j], want[j]) {
				t.Fatalf("row %d col %d = %s %q, want %q", i, j, row[j].Kind(), row[j], want[j])
			}
		}
	}
}

// TestArenaTruncatedDecode: a tuple cut short by the end of the buffer —
// what a spill reader sees before every refill — fails without consuming
// slab space, so the retry lands where the failed attempt would have.
func TestArenaTruncatedDecode(t *testing.T) {
	row := Tuple{Int(1), StringVal("first string"), StringVal("second string"), Float(2)}
	enc := AppendTuple(nil, row)
	arena := NewTupleArena(1)
	first, _, err := arena.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := arena.Decode(enc[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
	second, n, err := arena.Decode(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("decode after the failed attempts: n=%d err=%v", n, err)
	}
	// Adjacent in the slab: the failed attempts consumed nothing, and the
	// values they wrote were cleared from what became second's spare slot.
	gap := uintptr(unsafe.Pointer(&second[0])) - uintptr(unsafe.Pointer(&first[0]))
	if gap != uintptr(cap(first))*unsafe.Sizeof(Value{}) {
		t.Fatalf("second row starts %d bytes after the first: failed decodes consumed slab space", gap)
	}
	if spare := second[:cap(second)][len(second)]; !spare.IsNull() {
		t.Fatalf("spare slot holds %q", spare)
	}
	for j := range row {
		if !Identical(first[j], row[j]) || !Identical(second[j], row[j]) {
			t.Fatalf("col %d: %q / %q, want %q", j, first[j], second[j], row[j])
		}
	}
}
