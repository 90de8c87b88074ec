package storage

import "unsafe"

// Slab sizing: slabs double from the minimum to the cap, so a reader that
// decodes a handful of rows (one small Segmented Sort unit) wastes at most
// as much as it uses, and one that decodes a relation settles at a few
// hundred rows per allocation.
const (
	arenaMinRows  = 16
	arenaMaxRows  = 256
	arenaMaxVals  = 64 << 10 // bounds the slab a corrupt column count can ask for
	arenaMinBytes = 2 << 10
	arenaMaxBytes = 64 << 10
)

// TupleArena decodes tuples into shared slabs instead of one allocation per
// tuple and per string — the spill readers' counterpart of the executor's
// input arena. Every row is a three-index slice of a value slab with spare
// slots of capacity past its length, so Tuple.Extend grows it in place that
// many times and can never reach the next row; string payloads are copied
// into a byte slab the row's Values point into. Slabs are only ever carved
// forward, so a handed-out row and its strings are never overwritten, and a
// slab is garbage once every row carved from it is.
//
// Not safe for concurrent use.
type TupleArena struct {
	spare    int
	vals     []Value // unused tail of the current value slab
	slabRows int     // rows the last value slab was sized for
	strs     []byte  // unused tail of the current byte slab
	slabSize int     // size of the last byte slab
}

// NewTupleArena returns an arena whose rows carry spare slots of capacity.
func NewTupleArena(spare int) *TupleArena {
	if spare < 0 {
		spare = 0
	}
	return &TupleArena{spare: spare}
}

// Decode is DecodeTuple into the arena. On error — in particular on a tuple
// truncated by the end of buf, which a reader answers by refilling and
// calling again — nothing is consumed from the slabs.
func (a *TupleArena) Decode(buf []byte) (Tuple, int, error) {
	ncols, pos, err := decodeArity(buf)
	if err != nil {
		return nil, 0, err
	}
	need := ncols + a.spare
	if len(a.vals) < need {
		a.slabRows = min(max(2*a.slabRows, arenaMinRows), arenaMaxRows)
		a.vals = make([]Value, max(need, min(a.slabRows*need, arenaMaxVals)))
	}
	t := Tuple(a.vals[:ncols:need])
	strs := a.strs
	if pos, err = decodeValues(t, buf, pos, a); err != nil {
		clear(t) // unused slab stays zero: spare slots are NULL until extended
		a.strs = strs
		return nil, 0, err
	}
	a.vals = a.vals[need:]
	return t, pos, nil
}

// stringVal copies b into the byte slab and returns a string Value over the
// copy.
func (a *TupleArena) stringVal(b []byte) Value {
	if len(b) == 0 {
		return Value{ptr: tagEmpty}
	}
	if len(a.strs) < len(b) {
		a.slabSize = min(max(2*a.slabSize, arenaMinBytes), arenaMaxBytes)
		a.strs = make([]byte, max(a.slabSize, len(b)))
	}
	n := copy(a.strs, b)
	v := Value{num: uint64(n), ptr: unsafe.Pointer(unsafe.SliceData(a.strs))}
	a.strs = a.strs[n:]
	return v
}
