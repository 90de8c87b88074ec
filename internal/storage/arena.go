package storage

import (
	"runtime"
	"slices"
	"sync"
	"unsafe"
)

// Slab sizing: new slabs double from the minimum to the cap, so a reader
// that decodes a handful of rows (one small Segmented Sort unit) wastes at
// most as much as it uses, and one that decodes a relation settles at 64 KB
// per allocation. The value cap is a value count, not a row count: chains
// of every row width carve one pooled list, and slabs of one size serve
// them all, where slabs of so many rows would leave one set per width.
const (
	arenaMinRows  = 16
	arenaMaxVals  = 4 << 10
	arenaMinBytes = 2 << 10
	arenaMaxBytes = 64 << 10
)

// maxPooledBytes is the largest slab set the pool keeps (32 MB of values,
// row headers and string bytes): a chain's set is about one copy of its
// input, and one huge statement must not pin its slabs for the life of the
// process.
const maxPooledBytes = 32 << 20

// poisonRewound makes Release overwrite what it rewinds over, and Recycle
// the slabs it hands back, so a row or a string still in use after its
// memory was handed back reads as garbage instead of as its old self until
// something happens to reuse the slot. Tests set it (PoisonRewound); it is
// never set in a running engine.
var poisonRewound bool

// PoisonRewound switches on the overwriting of everything a TupleArena
// rewinds over or recycles and returns the function that switches it back
// off. It is a test switch — exported for the tests of the packages whose
// results may alias arena memory, such as a cluster's node streams — and
// tests that use it must not run in parallel with other arena users.
func PoisonRewound() (restore func()) {
	poisonRewound = true
	return func() { poisonRewound = false }
}

var poisonValue = Value{num: 0xDEADDEADDEADDEAD, ptr: tagInt}

// poisonTuple is what a poisoned header slab holds: a row of poison values
// wider than any row the engine carves.
var poisonTuple = func() Tuple {
	t := make(Tuple, 64)
	for i := range t {
		t[i] = poisonValue
	}
	return t
}()

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
// Beside the rows it carves the arrays a chain holds one element per row of
// for its whole life: value vectors (Values) and row-header arrays
// (Headers), each kind in slabs of its own that are carved forward only —
// Release and Reset leave them alone, and no row is carved from them — so
// an array is the caller's until Recycle.
//
// An arena from NewTupleArena allocates its slabs and the GC frees them with
// it. One from NewPooledTupleArena takes its value, byte, vector and header
// slabs from a process-wide pool the first time it needs one, and Recycle
// hands them back: a string it decoded dies with its rows, so whoever keeps
// one past Recycle copies it first (CarvedStrings says when that is needed).
//
// Not safe for concurrent use.
type TupleArena struct {
	stride int
	pooled bool // takes its slabs from slabPool on the first carve
	// strung is set by the first string payload carved since the arena was
	// made or last recycled.
	strung bool
	vals   slabs[Value]
	strs   slabs[byte]
	vecs   slabs[Value]
	hdrs   slabs[Tuple]
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

// NewPooledTupleArena is NewTupleArena for an arena whose value, byte,
// vector and header slabs come from the process-wide pool: taken on its
// first carve, so an arena that never carves never touches the pool, and
// handed back by Recycle.
func NewPooledTupleArena(stride int) *TupleArena {
	return &TupleArena{stride: max(stride, 0), pooled: true}
}

// Stride returns the row capacity the arena was built with.
func (a *TupleArena) Stride() int { return a.stride }

// Reserve makes room for rows more rows of at most stride columns in one
// slab, unless the slab being carved has the room already: in the smallest
// kept slab past the carving position that has it, or else in a new slab of
// exactly that size.
func (a *TupleArena) Reserve(rows int) {
	n := rows * a.stride
	if n <= 0 || a.vals.room() >= n || a.adopt() && a.vals.room() >= n {
		return
	}
	a.vals.reserve(n)
}

// Values carves a vector of n values out of the vector slabs, for the
// caller to fill: a column indexed like the rows, such as a chain's derived
// column. The contents are unspecified — a recycled slab is not cleared —
// so the caller writes every element before it reads one.
func (a *TupleArena) Values(n int) []Value { return carveArray(a, &a.vecs, n) }

// Headers carves an array of n row headers — length 0 and capacity n, for
// the caller to append to — out of the header slabs. Appending past n
// reallocates, as it would for any full slice.
func (a *TupleArena) Headers(n int) []Tuple { return carveArray(a, &a.hdrs, n)[:0] }

// carveArray carves n elements of one of the array slab lists: from the
// slab being carved when it has the room, else from the one reserve places
// after it. Nothing rewinds these lists, so the array is the caller's until
// Recycle.
func carveArray[T any](a *TupleArena, s *slabs[T], n int) []T {
	if n <= 0 {
		return nil
	}
	if s.room() < n && !(a.adopt() && s.room() >= n) {
		s.reserve(n)
	}
	return s.take(n)[:n:n]
}

// adopt gives a pooled arena that has no slabs yet the pool's most recently
// returned set, and reports whether it got one.
func (a *TupleArena) adopt() bool {
	if !a.pooled || a.vals.list != nil || a.strs.list != nil || a.vecs.list != nil || a.hdrs.list != nil {
		return false
	}
	set := slabPool.get()
	a.vals.list, a.strs.list, a.vecs.list, a.hdrs.list = set.vals, set.strs, set.vecs, set.hdrs
	return set.bytes() > 0
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
	a.OwnStrings(row)
	return row
}

// OwnStrings moves the string payloads of t into the arena's byte slabs, in
// place: t's strings then live exactly as long as the arena's rows.
func (a *TupleArena) OwnStrings(t Tuple) {
	for i, v := range t {
		if v.Kind() == KindString {
			t[i] = a.stringVal(unsafe.Slice((*byte)(v.ptr), int(v.num)))
		}
	}
}

// DetachStrings copies the string payloads of vals into one allocation of
// their own and points the values at the copies, in place: the strings then
// outlive the arena they were read out of.
func DetachStrings(vals []Value) {
	n := 0
	for _, v := range vals {
		if v.Kind() == KindString {
			n += int(v.num)
		}
	}
	if n == 0 {
		return
	}
	buf := make([]byte, 0, n)
	for i, v := range vals {
		if v.Kind() == KindString && v.num > 0 {
			at := len(buf)
			buf = append(buf, v.str()...)
			vals[i].ptr = unsafe.Pointer(&buf[at])
		}
	}
}

// CarvedStrings reports whether the arena has carved a string payload since
// it was made or last recycled: whether a string read out of it may lie in
// its byte slabs, and so must be copied to outlive a Recycle.
func (a *TupleArena) CarvedStrings() bool { return a.strung }

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
	if vals == nil && a.adopt() {
		vals = a.vals.take(need)
	}
	if vals == nil {
		rows := arenaMinRows
		if last := a.vals.last(); last > 0 {
			rows = max(2*(last/need), arenaMinRows)
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
	if dst == nil && a.adopt() {
		dst = a.strs.take(len(b))
	}
	if dst == nil {
		a.strs.add(max(len(b), min(max(2*a.strs.last(), arenaMinBytes), arenaMaxBytes)))
		dst = a.strs.take(len(b))
	}
	copy(dst, b)
	a.strung = true
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

// Recycle releases everything the arena ever handed out — rows, the strings
// in them, value vectors and header arrays — and gives its value, byte,
// vector and header slabs to the process-wide pool, for the next pooled
// arena to carve. No row, string, vector or array carved from the arena may
// be read afterwards. The arena is empty afterwards, as if new.
func (a *TupleArena) Recycle() {
	set := slabSet{vals: a.vals.list, strs: a.strs.list, vecs: a.vecs.list, hdrs: a.hdrs.list}
	*a = TupleArena{stride: a.stride, pooled: a.pooled}
	slabPool.put(set)
}

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

// reserve moves the carving position to the start of a free slab of at
// least n elements placed right after what is carved: the smallest kept one
// past the carving position that is long enough, or else a new one of
// exactly n. Before it makes one, it drops the free slabs longer than any
// row carves — only reserve makes those — since they are too short: a list
// that outlives its arena keeps one such slab, not one per row width.
func (s *slabs[T]) reserve(n int) {
	at := s.cur
	if at < len(s.list) && s.off > 0 {
		at++
	}
	best := -1
	for i := at; i < len(s.list); i++ {
		if l := len(s.list[i]); l >= n && (best < 0 || l < len(s.list[best])) {
			best = i
		}
	}
	var slab []T
	if best >= 0 {
		slab = s.list[best]
		s.list = slices.Delete(s.list, best, best+1)
	} else {
		free := slices.DeleteFunc(s.list[at:], func(sl []T) bool { return len(sl) > arenaMaxVals })
		s.list = s.list[:at+len(free)]
		slab = make([]T, n)
	}
	s.list = slices.Insert(s.list, at, slab)
	s.cur, s.off = at, 0
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

// slabSet is what one pooled arena carved from: its value, byte, vector and
// header slabs.
type slabSet struct {
	vals, vecs [][]Value
	strs       [][]byte
	hdrs       [][]Tuple
}

// bytes returns the memory the set's slabs hold.
func (s slabSet) bytes() int64 {
	return elems(s.vals)*int64(unsafe.Sizeof(Value{})) + elems(s.vecs)*int64(unsafe.Sizeof(Value{})) +
		elems(s.strs) + elems(s.hdrs)*int64(unsafe.Sizeof(Tuple{}))
}

func elems[T any](list [][]T) (n int64) {
	for _, sl := range list {
		n += int64(len(sl))
	}
	return n
}

// slabList is the free list of slab sets pooled arenas carve from. It is a
// plain list and not a sync.Pool for the reasons xsort's scratch pool is
// one: a set must survive a GC — a statement that finds the pool emptied
// allocates a copy of its input, which is what the pool exists to avoid —
// and a slice goes in and out without being boxed. It holds at most
// GOMAXPROCS sets, the most chains that can be carving at once, and keeps
// the largest it has seen; a set in it holds no live value and no pointer.
type slabList struct {
	mu   sync.Mutex
	free []slabSet
}

var (
	slabPool slabList
	// poolSlots is read once: runtime.GOMAXPROCS takes the scheduler lock.
	poolSlots = runtime.GOMAXPROCS(0)
)

// get takes the most recently returned set out of the pool, the zero set
// when it is empty.
func (p *slabList) get() slabSet {
	p.mu.Lock()
	defer p.mu.Unlock()
	last := len(p.free) - 1
	if last < 0 {
		return slabSet{}
	}
	set := p.free[last]
	p.free[last] = slabSet{}
	p.free = p.free[:last]
	return set
}

// put clears set — under the poison switch, overwrites it — and adds it to
// the pool, in place of the smallest set there when the pool is full and
// that one is smaller.
func (p *slabList) put(set slabSet) {
	n := set.bytes()
	if n == 0 || n > maxPooledBytes {
		return
	}
	// A pooled slab pins no string and no row. Byte slabs hold no pointer,
	// so they are overwritten only under the poison switch.
	fill(set.vals, poisonValue)
	fill(set.vecs, poisonValue)
	fill(set.hdrs, poisonTuple)
	if poisonRewound {
		fill(set.strs, poisonByte)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < poolSlots {
		p.free = append(p.free, set)
		return
	}
	smallest := 0
	for i, s := range p.free {
		if s.bytes() < p.free[smallest].bytes() {
			smallest = i
		}
	}
	if p.free[smallest].bytes() < n {
		p.free[smallest] = set
	}
}

// fill clears every slab of list, or overwrites it with poison under the
// poison switch.
func fill[T any](list [][]T, poison T) {
	for _, sl := range list {
		if !poisonRewound {
			clear(sl)
			continue
		}
		for i := range sl {
			sl[i] = poison
		}
	}
}

// ArenaPoolBytes reports the memory the idle arena pool retains: the value,
// byte, vector and header slabs waiting for a pooled arena, not the ones a
// running chain holds.
func ArenaPoolBytes() int64 {
	slabPool.mu.Lock()
	defer slabPool.mu.Unlock()
	var n int64
	for _, s := range slabPool.free {
		n += s.bytes()
	}
	return n
}
