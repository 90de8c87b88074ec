package storage

import "unsafe"

// Slab sizing: new slabs double from the minimum to the cap, so a reader
// that decodes a handful of rows (one small Segmented Sort unit) wastes at
// most as much as it uses, and one that decodes a relation settles at a few
// hundred rows per allocation.
const (
	arenaMinRows  = 16
	arenaMaxRows  = 256
	arenaMaxVals  = 64 << 10 // bounds the slab a corrupt column count can ask for
	arenaMinBytes = 2 << 10
	arenaMaxBytes = 64 << 10
)

// poisonRewound makes Release overwrite what it rewinds over, so a row or a
// string still in use after its memory was handed back reads as garbage
// instead of as its old self until something happens to reuse the slot.
// Tests set it (export_test.go); it is never set in a running engine.
var poisonRewound bool

var poisonValue = Value{num: 0xDEADDEADDEADDEAD, ptr: tagInt}

const poisonByte = 0xDB

// TupleArena holds the rows of one chain of operators in slabs it keeps:
// the spill readers decode into it instead of allocating per tuple and per
// string, and an operator whose input has all gone to disk rewinds it, so
// the rows read back land where the rows written out were. Every row is a
// three-index slice of a value slab with capacity stride (its own length
// when that is larger), so Tuple.Extend grows it in place up to the stride
// and can never reach the next row; string payloads are copied into a byte
// slab the row's Values point into.
//
// Slabs are carved forward. Mark names the carving position, Release(mark)
// moves it back there and Reset to the start; the slabs stay, and what is
// carved next overwrites them. A rewind is therefore a promise by the
// caller that no row handed out since the mark, and no string in one, will
// be read again. Between rewinds a handed-out row and its strings are never
// overwritten.
//
// Not safe for concurrent use.
type TupleArena struct {
	stride int
	vals   slabs[Value]
	strs   slabs[byte]
}

// ArenaMark is a carving position of one TupleArena. The zero mark is the
// start of the arena.
type ArenaMark struct {
	valSlab, valOff int
	strSlab, strOff int
}

// NewTupleArena returns an arena whose rows have capacity stride. Stride 0
// gives every row exactly its own length.
func NewTupleArena(stride int) *TupleArena {
	return &TupleArena{stride: max(stride, 0)}
}

// Stride returns the row capacity the arena was built with.
func (a *TupleArena) Stride() int { return a.stride }

// Reserve makes room for rows more rows of at most stride columns in one
// slab of exactly that size, unless the slab being carved has the room
// already.
func (a *TupleArena) Reserve(rows int) {
	if n := rows * a.stride; n > 0 && a.vals.room() < n {
		a.vals.add(n)
	}
}

// Copy returns a copy of t in the arena with the arena's row capacity. The
// values are copied; strings stay where they are.
func (a *TupleArena) Copy(t Tuple) Tuple {
	row := a.row(len(t))
	copy(row, t)
	return row
}

// CopyStrings is Copy that also moves the string payloads into the arena:
// the result shares no memory with t.
func (a *TupleArena) CopyStrings(t Tuple) Tuple {
	row := a.Copy(t)
	for i, v := range row {
		if v.Kind() == KindString {
			row[i] = a.stringVal(unsafe.Slice((*byte)(v.ptr), int(v.num)))
		}
	}
	return row
}

// Decode is DecodeTuple into the arena. On error — in particular on a tuple
// truncated by the end of buf, which a reader answers by refilling and
// calling again — nothing is consumed from the slabs.
func (a *TupleArena) Decode(buf []byte) (Tuple, int, error) {
	ncols, pos, err := decodeArity(buf)
	if err != nil {
		return nil, 0, err
	}
	at := a.Mark()
	t := a.row(ncols)
	if pos, err = decodeValues(t, buf, pos, a); err != nil {
		a.Release(at)
		return nil, 0, err
	}
	return t, pos, nil
}

// row carves an ncols-column row whose spare slots are NULL.
func (a *TupleArena) row(ncols int) Tuple {
	need := max(ncols, a.stride)
	vals := a.vals.take(need)
	if vals == nil {
		rows := arenaMinRows
		if last := a.vals.last(); last > 0 {
			rows = min(max(2*(last/need), arenaMinRows), arenaMaxRows)
		}
		a.vals.add(max(need, min(rows*need, arenaMaxVals)))
		vals = a.vals.take(need)
	}
	clear(vals[ncols:]) // a recycled slab is not zero
	return Tuple(vals[:ncols:need])
}

// stringVal copies b into the byte slabs and returns a string Value over the
// copy.
func (a *TupleArena) stringVal(b []byte) Value {
	if len(b) == 0 {
		return Value{ptr: tagEmpty}
	}
	dst := a.strs.take(len(b))
	if dst == nil {
		a.strs.add(max(len(b), min(max(2*a.strs.last(), arenaMinBytes), arenaMaxBytes)))
		dst = a.strs.take(len(b))
	}
	copy(dst, b)
	return Value{num: uint64(len(b)), ptr: unsafe.Pointer(unsafe.SliceData(dst))}
}

// Mark returns the current carving position.
func (a *TupleArena) Mark() ArenaMark {
	return ArenaMark{valSlab: a.vals.cur, valOff: a.vals.off, strSlab: a.strs.cur, strOff: a.strs.off}
}

// Release rewinds the arena to m, a mark taken from it earlier and not
// rewound past since: every row handed out after m, and every string
// decoded after it, is dead, and the next rows are carved over them.
func (a *TupleArena) Release(m ArenaMark) {
	a.vals.rewind(m.valSlab, m.valOff, poisonValue)
	a.strs.rewind(m.strSlab, m.strOff, poisonByte)
}

// Reset releases everything the arena ever handed out.
func (a *TupleArena) Reset() { a.Release(ArenaMark{}) }

// slabs is a list of kept slabs and the position up to which they are
// carved: all of list[:cur], and list[cur][:off].
type slabs[T any] struct {
	list     [][]T
	cur, off int
}

// take carves n contiguous elements out of the current slab or the first
// kept one after it with the room, and returns nil when none has.
func (s *slabs[T]) take(n int) []T {
	for ; s.cur < len(s.list); s.cur, s.off = s.cur+1, 0 {
		if sl := s.list[s.cur]; len(sl)-s.off >= n {
			s.off += n
			return sl[s.off-n : s.off]
		}
	}
	return nil
}

// room returns what is left of the slab being carved.
func (s *slabs[T]) room() int {
	if s.cur < len(s.list) {
		return len(s.list[s.cur]) - s.off
	}
	return 0
}

// last returns the size of the newest slab, 0 when there is none.
func (s *slabs[T]) last() int {
	if len(s.list) == 0 {
		return 0
	}
	return len(s.list[len(s.list)-1])
}

// add appends a new slab of n elements and moves the carving position to
// it. Kept slabs it jumps over stay unused until the next rewind.
func (s *slabs[T]) add(n int) {
	s.list = append(s.list, make([]T, n))
	s.cur, s.off = len(s.list)-1, 0
}

// rewind moves the carving position back to list[cur][:off].
func (s *slabs[T]) rewind(cur, off int, poison T) {
	if poisonRewound {
		for i := cur; i <= s.cur && i < len(s.list); i++ {
			from, to := 0, len(s.list[i])
			if i == cur {
				from = off
			}
			if i == s.cur {
				to = s.off
			}
			for j := from; j < to; j++ {
				s.list[i][j] = poison
			}
		}
	}
	s.cur, s.off = cur, off
}
