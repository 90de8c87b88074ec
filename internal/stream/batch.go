package stream

import (
	"fmt"
	"math"
	"strings"
	"unsafe"

	"repro/internal/storage"
)

// BatchRows is the most rows a result batch of cols columns carries: what
// a cursor gathers per pull and what a binary stream packs into one frame.
// A batch is sized in bytes, not rows, as the paper prices I/O in blocks:
// as many rows as fill 64 KiB at 8 bytes a cell, at least 256 and at most
// 4096. Every frame costs a stream one write, one flush and, over HTTP,
// one chunk, so a 20 000-row result of two columns pays that 5 times, not
// 79. A batch never holds more than max(8192, 256·cols) cells.
func BatchRows(cols int) int {
	return min(max(BatchBytes/8/max(cols, 1), 256), 4096)
}

// BatchBytes is the block a batch is sized to: the fixed-width cells of
// BatchRows rows, and the most string bytes a frame gathers before it ends
// (FrameWriter.WriteBatch).
const BatchBytes = 64 << 10

// Batch is a column-vector view of a run of rows: one Col per schema
// column, each holding the column's values as a packed typed slice plus a
// validity vector. It is the one carrier of query results from the
// finished chain to whoever reads them — a cursor gathers into it, the
// binary frame codec (frame.go) writes it as a near-memcpy of its vectors
// and decodes the next frame over it, and the public Rows cursor is a row
// view of it.
//
// A Batch is refilled, not reallocated: Reset (and everything built on it —
// FillTuples, DecodeBatchInto, Batcher) keeps the vectors of earlier fills
// as spare capacity, so a producer that holds one Batch allocates its
// vectors once. The consumer it hands the batch to may read it until it
// asks for the next one; values it keeps past that it must copy out
// (strings are immutable and may be kept as they are).
//
// A Col is in exactly one of two layouts:
//
//   - typed: Kind is Int/Float/String and the matching vector (Ints,
//     Floats, Strs) has one N-aligned slot per row; Null marks the NULL
//     slots (nil Null means no NULLs). Kind Null with no vectors is the
//     all-NULL column.
//   - mixed: Mixed holds one storage.Value per row, for the rare
//     kind-heterogeneous column (well-typed relations never produce one,
//     but the wire must stay lossless for any tuple the engine can carry).
type Batch struct {
	n    int
	cols []Col
}

// Col is one column vector of a Batch.
type Col struct {
	// Kind is the column's value kind: Int/Float/String select a typed
	// vector, Null is the all-NULL column. Mixed layouts ignore Kind.
	Kind storage.Kind
	// Null marks NULL slots of a typed vector; nil means none.
	Null []bool
	// Ints/Floats/Strs is the typed vector (exactly one non-nil, N-aligned;
	// NULL slots hold the zero value).
	Ints   []int64
	Floats []float64
	Strs   []string
	// Mixed, when non-nil, overrides the typed layout with per-row values.
	Mixed []storage.Value

	// spare is every vector this column ever held, at full capacity: the
	// exported vectors above are nil or a prefix of their spare.
	spare struct {
		null   []bool
		ints   []int64
		floats []float64
		strs   []string
		mixed  []storage.Value
	}
}

// poisonReused makes Reset overwrite every vector it is about to hand out
// again, so a row, a vector or a value read out of a batch after the batch
// went back for a refill shows as garbage instead of as whatever the next
// fill happens to leave there. Tests set it (PoisonReused); it is never set
// in a running engine.
var poisonReused bool

// PoisonReused switches on the overwriting of every vector a Batch hands
// out again and returns the function that switches it back off. It is a
// test switch — exported for the tests of the packages whose results travel
// in batches, such as the SQL cursor — and tests that use it must not run in
// parallel with other batch users.
func PoisonReused() (restore func()) {
	poisonReused = true
	return func() { poisonReused = false }
}

const (
	poisonInt = int64(-0x2152215221522153) // 0xDEADDEADDEADDEAD
	poisonStr = "\xdb\xdbreused batch\xdb\xdb"
)

// grow returns an n-element vector over *spare, reallocating it when it is
// too short. The elements are whatever the last fill left: every filler
// writes all n.
func grow[T any](spare *[]T, n int) []T {
	if cap(*spare) < n {
		*spare = make([]T, n)
	}
	return (*spare)[:n]
}

// Reset readies b for a refill of n rows by arity columns: every column is
// all-NULL until it is set, and the vectors of earlier fills stay behind
// as capacity.
func (b *Batch) Reset(arity, n int) {
	if cap(b.cols) < arity {
		cols := make([]Col, arity)
		copy(cols, b.cols[:cap(b.cols)])
		b.cols = cols
	}
	b.cols = b.cols[:arity]
	b.n = n
	for c := range b.cols {
		col := &b.cols[c]
		if poisonReused {
			col.poison()
		}
		col.clear()
	}
}

// Clear empties b and lets go of every value its vectors still hold — a
// string, the tail of a mixed column — keeping them as capacity: what a
// batch that waits on a free list must be. Under PoisonReused its vectors
// are overwritten instead.
func (b *Batch) Clear() {
	cols := b.cols[:cap(b.cols)]
	for c := range cols {
		col := &cols[c]
		if poisonReused {
			col.poison()
		} else {
			clear(col.spare.strs[:cap(col.spare.strs)])
			clear(col.spare.mixed[:cap(col.spare.mixed)])
		}
		col.clear()
	}
	b.cols, b.n = b.cols[:0], 0
}

// clear makes c the all-NULL column; its vectors stay behind in spare.
func (c *Col) clear() {
	c.Kind = storage.KindNull
	c.Null, c.Ints, c.Floats, c.Strs, c.Mixed = nil, nil, nil, nil, nil
}

func (c *Col) poison() {
	s := &c.spare
	poison(s.null, true)
	poison(s.ints, poisonInt)
	poison(s.floats, math.NaN())
	poison(s.strs, poisonStr)
	poison(s.mixed, storage.StringVal(poisonStr))
}

func poison[T any](spare []T, v T) {
	spare = spare[:cap(spare)]
	for i := range spare {
		spare[i] = v
	}
}

// Bytes is the memory b's vectors retain, the spare capacity of every
// column it has had included: what a free list that keeps b counts it as.
func (b *Batch) Bytes() int64 {
	n := int64(cap(b.cols)) * int64(unsafe.Sizeof(Col{}))
	cols := b.cols[:cap(b.cols)]
	for c := range cols {
		s := &cols[c].spare
		n += int64(cap(s.null)) + 8*int64(cap(s.ints)+cap(s.floats)) +
			int64(cap(s.strs))*int64(unsafe.Sizeof("")) +
			int64(cap(s.mixed))*int64(unsafe.Sizeof(storage.Value{}))
	}
	return n
}

// strBytes is the bytes of every string b holds: what its frames carry
// past the fixed-width cells BatchRows accounts for.
func (b *Batch) strBytes() int {
	n := 0
	for c := range b.cols {
		col := &b.cols[c]
		for _, v := range col.Mixed {
			n += strLen(v)
		}
		for _, s := range col.Strs {
			n += len(s)
		}
	}
	return n
}

// rowStrBytes is strBytes of row i alone.
func (b *Batch) rowStrBytes(i int) int {
	n := 0
	for c := range b.cols {
		col := &b.cols[c]
		if col.Mixed != nil {
			n += strLen(col.Mixed[i])
		} else if col.Strs != nil {
			n += len(col.Strs[i])
		}
	}
	return n
}

func strLen(v storage.Value) int {
	if v.Kind() != storage.KindString {
		return 0
	}
	return len(v.Str())
}

// Len returns the batch's row count.
func (b *Batch) Len() int { return b.n }

// Arity returns the batch's column count.
func (b *Batch) Arity() int { return len(b.cols) }

// Cols returns the column vectors.
func (b *Batch) Cols() []Col { return b.cols }

// Value returns row i of the column.
func (c *Col) Value(i int) storage.Value {
	if c.Mixed != nil {
		return c.Mixed[i]
	}
	if c.Null != nil && c.Null[i] {
		return storage.Null
	}
	switch c.Kind {
	case storage.KindInt:
		return storage.Int(c.Ints[i])
	case storage.KindFloat:
		return storage.Float(c.Floats[i])
	case storage.KindString:
		return storage.StringVal(c.Strs[i])
	default:
		return storage.Null
	}
}

// colView reads one column of a run of rows: slot src of each tuple in
// rows, or — rows nil — the values of vals. With pos set, row i of the run
// is element pos[i] of rows (or vals) rather than element i.
type colView struct {
	rows []storage.Tuple
	src  int
	vals []storage.Value
	pos  []int
}

func (v colView) at(i int) storage.Value {
	if v.pos != nil {
		i = v.pos[i]
	}
	if v.rows != nil {
		return v.rows[i][v.src]
	}
	return v.vals[i]
}

// SetTuples fills column c with slot src of each of rows, which must be
// Len() tuples. The layout is inferred from the values: a column whose
// non-NULL values share one kind becomes a typed vector, a
// kind-heterogeneous one falls back to the mixed layout.
func (b *Batch) SetTuples(c int, rows []storage.Tuple, src int) {
	b.set(c, colView{rows: rows[:b.n], src: src})
}

// SetValues is SetTuples over a contiguous vector of Len() values.
func (b *Batch) SetValues(c int, vals []storage.Value) {
	b.set(c, colView{vals: vals[:b.n]})
}

// GatherTuples is SetTuples over the rows at the Len() positions pos names,
// in that order: how a result that is a selection or a permutation of its
// source leaves without the selected rows being built first.
func (b *Batch) GatherTuples(c int, rows []storage.Tuple, src int, pos []int) {
	b.set(c, colView{rows: rows, src: src, pos: pos[:b.n]})
}

// GatherValues is SetValues over the elements of vals at positions pos.
func (b *Batch) GatherValues(c int, vals []storage.Value, pos []int) {
	b.set(c, colView{vals: vals, pos: pos[:b.n]})
}

func (b *Batch) set(c int, v colView) {
	col, n := &b.cols[c], b.n
	kind, nulls, mixed := storage.KindNull, 0, false
	for i := 0; i < n && !mixed; i++ {
		switch k := v.at(i).Kind(); {
		case k == storage.KindNull:
			nulls++
		case kind == storage.KindNull:
			kind = k
		default:
			mixed = kind != k
		}
	}
	col.Kind = kind
	if mixed {
		col.Mixed = grow(&col.spare.mixed, n)
		for i := range col.Mixed {
			col.Mixed[i] = v.at(i)
		}
		return
	}
	if kind == storage.KindNull {
		return // all-NULL column: no vectors at all
	}
	if nulls > 0 {
		col.Null = grow(&col.spare.null, n)
		for i := range col.Null {
			col.Null[i] = v.at(i).IsNull()
		}
	}
	// A NULL slot holds the zero value, whatever an earlier fill left there.
	switch kind {
	case storage.KindInt:
		col.Ints = grow(&col.spare.ints, n)
		for i := range col.Ints {
			if x := v.at(i); x.IsNull() {
				col.Ints[i] = 0
			} else {
				col.Ints[i] = x.Int64()
			}
		}
	case storage.KindFloat:
		col.Floats = grow(&col.spare.floats, n)
		for i := range col.Floats {
			if x := v.at(i); x.IsNull() {
				col.Floats[i] = 0
			} else {
				col.Floats[i] = x.Float64()
			}
		}
	case storage.KindString:
		col.Strs = grow(&col.spare.strs, n)
		for i := range col.Strs {
			if x := v.at(i); x.IsNull() {
				col.Strs[i] = ""
			} else {
				col.Strs[i] = x.Str()
			}
		}
	}
}

// DetachStrings copies every string the batch holds into memory of the
// batch's consumer, one allocation per column that holds any: what a
// producer calls when the memory it filled the batch from is reused before
// the consumer is done with the strings — a chain's arena, whose string
// payloads go back to a pool when the chain is released.
func (b *Batch) DetachStrings() {
	for c := range b.cols {
		col := &b.cols[c]
		if col.Mixed != nil {
			storage.DetachStrings(col.Mixed)
			continue
		}
		n := 0
		for _, s := range col.Strs {
			n += len(s)
		}
		if n == 0 {
			continue
		}
		var sb strings.Builder
		sb.Grow(n)
		for _, s := range col.Strs {
			sb.WriteString(s)
		}
		all := sb.String()
		for i, s := range col.Strs {
			col.Strs[i], all = all[:len(s)], all[len(s):]
		}
	}
}

// FillTuples refills b with a run of same-arity tuples, column by column
// (SetTuples).
func (b *Batch) FillTuples(tuples []storage.Tuple, arity int) error {
	for _, t := range tuples {
		if len(t) != arity {
			return fmt.Errorf("stream: tuple arity %d != batch arity %d", len(t), arity)
		}
	}
	b.Reset(arity, len(tuples))
	for c := range b.cols {
		b.SetTuples(c, tuples, c)
	}
	return nil
}

// BatchFromTuples converts a run of same-arity tuples into a new batch.
func BatchFromTuples(tuples []storage.Tuple, arity int) (*Batch, error) {
	b := &Batch{}
	if err := b.FillTuples(tuples, arity); err != nil {
		return nil, err
	}
	return b, nil
}

// Truncate cuts b to its first n rows and infers every column's layout
// again, so the result is what filling the batch with those n rows would
// have built: a column that was mixed only past row n becomes typed, one
// whose NULLs all lay past it drops its validity vector.
func (b *Batch) Truncate(n int) {
	if n >= b.n {
		return
	}
	b.n = n
	vals := make([]storage.Value, n)
	for c := range b.cols {
		col := &b.cols[c]
		for i := range vals {
			vals[i] = col.Value(i)
		}
		col.clear()
		b.SetValues(c, vals)
	}
}

// Row writes row i into dst, which must have Arity() elements.
func (b *Batch) Row(dst storage.Tuple, i int) {
	for c := range b.cols {
		dst[c] = b.cols[c].Value(i)
	}
}

// Tuples materializes the batch back into row tuples.
func (b *Batch) Tuples() []storage.Tuple {
	out := make([]storage.Tuple, b.n)
	if b.n == 0 {
		return out
	}
	// One arena allocation for all row backing arrays: rows leaving a batch
	// are the executor's working set, and 1 allocation beats b.n small ones.
	arena := make(storage.Tuple, b.n*len(b.cols))
	for i := range out {
		t := arena[i*len(b.cols) : (i+1)*len(b.cols) : (i+1)*len(b.cols)]
		b.Row(t, i)
		out[i] = t
	}
	return out
}

// Batcher is the tuple→batch adapter for the sources that produce a row
// at a time — a one-row summary, rendered text, a subscription's deltas, a
// merge of node streams, NDJSON lines: it pulls up to max rows from next
// into one reused Batch per NextBatch call. A live source passes max 1, so
// that a row never waits behind one that has not happened yet.
type Batcher struct {
	next    func() (storage.Tuple, error)
	arity   int
	max     int
	staging []storage.Tuple // grown to the most rows one batch has held
	batch   Batch
	err     error // what next ended with, held back until the rows before it are out
}

// NewBatcher adapts next, which returns io.EOF (or an error) to end the
// stream, into batches of at most max rows by arity columns.
func NewBatcher(arity, max int, next func() (storage.Tuple, error)) *Batcher {
	return &Batcher{next: next, arity: arity, max: max}
}

// NextBatch returns the next rows, valid until the following call. The
// error that ends the stream — io.EOF included — comes after every row
// pulled before it, and again on every call after.
func (tb *Batcher) NextBatch() (*Batch, error) {
	if tb.err != nil {
		return nil, tb.err
	}
	rows := tb.staging[:0]
	for len(rows) < tb.max {
		t, err := tb.next()
		if err != nil {
			tb.err = err
			break
		}
		rows = append(rows, t)
	}
	tb.staging = rows
	if len(rows) == 0 {
		return nil, tb.err
	}
	if err := tb.batch.FillTuples(rows, tb.arity); err != nil {
		tb.err = err
		return nil, err
	}
	clear(rows) // the staged headers are the source's rows: don't pin them
	return &tb.batch, nil
}
