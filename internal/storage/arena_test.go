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
	arena := NewTupleArena(4 + spare)
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
	arena := NewTupleArena(len(row) + 1)
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

// encodeRows returns the back-to-back encodings of n four-column rows whose
// content is a function of (tag, i).
func encodeRows(tag, n int) (buf []byte, rows []Tuple) {
	for i := 0; i < n; i++ {
		row := Tuple{Int(int64(tag)), Int(int64(i)), StringVal(strings.Repeat(string(rune('a'+tag%26)), 1+i%50)), Float(float64(i))}
		rows = append(rows, row)
		buf = AppendTuple(buf, row)
	}
	return buf, rows
}

// decodeAll decodes every tuple of buf into arena.
func decodeAll(t *testing.T, arena *TupleArena, buf []byte) []Tuple {
	t.Helper()
	var out []Tuple
	for off := 0; off < len(buf); {
		row, n, err := arena.Decode(buf[off:])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, row)
		off += n
	}
	return out
}

func sameRows(t *testing.T, what string, got, want []Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) < len(want[i]) {
			t.Fatalf("%s: row %d has %d columns", what, i, len(got[i]))
		}
		for c := range want[i] {
			if !Identical(got[i][c], want[i][c]) {
				t.Fatalf("%s: row %d col %d = %s %q, want %q", what, i, c, got[i][c].Kind(), got[i][c], want[i][c])
			}
		}
	}
}

// TestArenaReleaseKeepsRowsBeforeTheMark — rows handed out after a
// Release(mark) reuse what was carved after the mark and never what was
// carved before it: the rows from before stay intact, in values, in spare
// slots extended later and in strings, however often the arena is rewound
// and refilled — with poisoning on, so that a rewind reaching back too far
// would show.
func TestArenaReleaseKeepsRowsBeforeTheMark(t *testing.T) {
	defer PoisonRewound()()
	const stride = 6
	arena := NewTupleArena(stride)
	keepBuf, keepWant := encodeRows(0, 700) // several slabs of both kinds
	kept := decodeAll(t, arena, keepBuf)
	mark := arena.Mark()
	keptSlots := map[*Value]bool{}
	for _, row := range kept {
		for c := range row[:stride] {
			keptSlots[&row[:stride][c]] = true
		}
	}
	var firstAfter *Value
	for round := 1; round <= 4; round++ {
		buf, want := encodeRows(round, 300*round)
		rows := decodeAll(t, arena, buf)
		if round == 1 {
			firstAfter = &rows[0][0]
		} else if &rows[0][0] != firstAfter {
			t.Fatalf("round %d: the first row after the mark is not where the first released row was", round)
		}
		for i, row := range rows {
			if cap(row) != stride {
				t.Fatalf("round %d row %d: cap %d, want %d", round, i, cap(row), stride)
			}
			if spare := row[:stride][len(row)]; !spare.IsNull() {
				t.Fatalf("round %d row %d: spare slot holds %q", round, i, spare)
			}
			for c := range row[:stride] {
				if keptSlots[&row[:stride][c]] {
					t.Fatalf("round %d row %d overlaps a row handed out before the mark", round, i)
				}
			}
			rows[i] = row.Extend(Int(int64(-i))).Extend(StringVal("x"))
		}
		sameRows(t, "rows after the mark", rows, want)
		sameRows(t, "rows before the mark", kept, keepWant)
		str := rows[0][2] // a Value outside the arena over a string inside it
		arena.Release(mark)
		// Poisoned: what was released reads as the sentinel, what was kept
		// (checked on the next round) does not.
		if !Identical(rows[0][0], poisonValue) || str.Str()[0] != poisonByte {
			t.Fatalf("released row reads %q, its string %q, want the poison", rows[0][0], str)
		}
	}
	for i := range kept {
		kept[i] = kept[i].Extend(Int(int64(i)))
	}
	sameRows(t, "rows before the mark, extended", kept, keepWant)
}

// TestArenaResetReusesSlabs — a second fill of a reset arena allocates
// nothing: the slabs stay, including the exact-size one Reserve made for
// the rows Copy put there.
func TestArenaResetReusesSlabs(t *testing.T) {
	const stride, n = 5, 2000
	buf, want := encodeRows(3, n)
	arena := NewTupleArena(stride)
	arena.Reserve(n)
	first := make([]Tuple, n)
	for i, row := range want {
		first[i] = arena.Copy(row)
	}
	sameRows(t, "copied rows", first, want)
	if got := uintptr(unsafe.Pointer(&first[n-1][0])) - uintptr(unsafe.Pointer(&first[0][0])); got != (n-1)*stride*unsafe.Sizeof(Value{}) {
		t.Fatalf("reserved rows span %d bytes: not one exact-size slab", got)
	}
	if first[0][2].ptr != want[0][2].ptr {
		t.Fatal("Copy moved a string")
	}
	if deep := arena.CopyStrings(want[0]); deep[2].ptr == want[0][2].ptr || deep[2].Str() != want[0][2].Str() {
		t.Fatal("CopyStrings left a string where it was")
	}

	out := make([]Tuple, 0, n)
	fill := func() {
		arena.Reset()
		out = out[:0]
		for off := 0; off < len(buf); {
			row, k, err := arena.Decode(buf[off:])
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, row)
			off += k
		}
	}
	fill() // allocates the byte slabs
	if &out[0][0] != &first[0][0] {
		t.Fatal("the first row after Reset is not where the first row was")
	}
	if allocs := testing.AllocsPerRun(5, fill); allocs != 0 {
		t.Fatalf("refilling a reset arena allocated %v objects", allocs)
	}
	sameRows(t, "refilled rows", out, want)
}

// TestArenaStrideZero — a private arena gives every row exactly its own
// length, and one wider than the stride exactly that.
func TestArenaStrideZero(t *testing.T) {
	buf, want := encodeRows(1, 40)
	for _, stride := range []int{0, 2} {
		rows := decodeAll(t, NewTupleArena(stride), buf)
		for i, row := range rows {
			if len(row) != 4 || cap(row) != 4 {
				t.Fatalf("stride %d row %d: len %d cap %d, want both 4", stride, i, len(row), cap(row))
			}
		}
		sameRows(t, "rows", rows, want)
	}
}
