package sql

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math/bits"
	"strings"
	"unsafe"

	"repro/internal/exec"
	"repro/internal/recycle"
	"repro/internal/storage"
)

// The clauses that run around the window chain (Section 5's loose
// integration): WHERE before it, over the base rows, and DISTINCT after it,
// over the chain's positions. Their workspace — a WHERE's mask, DISTINCT's
// key table — comes from internal/recycle free lists and goes back before
// the clause returns, so a warm statement allocates for what survives, not
// for how many rows it looked at.

// masks is the free list of WHERE masks: one bit per base row.
var masks = recycle.NewList(func(m *[]uint64) int64 { return 8 * int64(cap(*m)) })

// filterWhere applies the statement's WHERE clause to base, producing the
// windowed table WT (Section 5's loose integration: all clauses except
// ORDER BY run before the windows). Statements without a WHERE return base
// unchanged. The survivors' array is carved by headers (exec.Chain.Headers),
// or allocated when it is nil: a table that outlives the statement.
func (p *Prepared) filterWhere(base *storage.Table, headers func(n int) []storage.Tuple) (*storage.Table, error) {
	if p.q.Where == nil {
		return base, nil
	}
	// Two passes — mark, then copy — so the output is allocated once at its
	// exact size instead of grown by append. The marks are a bit per row in
	// a recycled mask.
	schema := base.Schema
	mask := masks.Get()
	defer masks.Put(mask)
	words := (len(base.Rows) + 63) / 64
	if cap(*mask) < words {
		*mask = make([]uint64, words)
	}
	keep := (*mask)[:words]
	clear(keep)
	n := 0
	for i, row := range base.Rows {
		v, err := evalPredicate(p.q.Where, row, schema)
		if err != nil {
			return nil, err
		}
		if v == tTrue {
			keep[i/64] |= 1 << (i % 64)
			n++
		}
	}
	wt := storage.NewTable(schema)
	if headers != nil {
		wt.Rows = headers(n)
	} else {
		wt.Rows = make([]storage.Tuple, 0, n)
	}
	for w, word := range keep {
		for ; word != 0; word &= word - 1 {
			wt.Rows = append(wt.Rows, base.Rows[w*64+bits.TrailingZeros64(word)])
		}
	}
	return wt, nil
}

// distinctTable is DISTINCT's workspace: the encoded key of every row kept
// so far, back to back in keys, the k-th ending at ends[k] and hashing to
// hashes[k], and an open-addressing table over them, whose slots hold k+1
// (0 is an empty slot). It is reset, not emptied, between statements: its
// arrays keep their capacity and hold no pointer.
type distinctTable struct {
	keys   []byte
	ends   []int
	hashes []uint64
	slots  []int32
}

var (
	distinctTables = recycle.NewList((*distinctTable).bytes)
	distinctSeed   = maphash.MakeSeed()
)

// minSlots is the table size a statement starts at; it doubles whenever
// the kept keys fill half of it.
const minSlots = 64

// distinctPositions appends to listed the positions of the chain rows
// whose projection no earlier row has, in chain order and at most stop of
// them, and returns it. NULLs are one value, per SQL DISTINCT, and so are
// the two float zeros, as in every comparison the engine makes: two rows
// are duplicates exactly when the encodings of their projected values, the
// zeros folded, are the same bytes.
func distinctPositions(src *exec.Chain, pick []int, stop int, listed []int) []int {
	t := distinctTables.Get()
	defer distinctTables.Put(t)
	t.reset()
	for i := 0; i < src.Len() && len(listed) < stop; i++ {
		start := len(t.keys)
		for _, col := range pick {
			v := src.At(i, col)
			if v.Kind() == storage.KindFloat && v.Float64() == 0 {
				v = storage.Float(0)
			}
			t.keys = storage.AppendTuple(t.keys, storage.Tuple{v})
		}
		if t.keep(start) {
			listed = append(listed, i)
		}
	}
	return listed
}

// reset empties t for a statement.
func (t *distinctTable) reset() {
	t.keys, t.ends, t.hashes = t.keys[:0], t.ends[:0], t.hashes[:0]
	t.resize(minSlots)
}

// keep looks up the key keys[start:], just appended: a key no kept row has
// stays, and keep reports true; a duplicate is cut off again.
func (t *distinctTable) keep(start int) bool {
	key := t.keys[start:]
	h := maphash.Bytes(distinctSeed, key)
	s := t.find(h, key)
	if t.slots[s] != 0 {
		t.keys = t.keys[:start]
		return false
	}
	t.ends = append(t.ends, len(t.keys))
	t.hashes = append(t.hashes, h)
	t.slots[s] = int32(len(t.ends))
	if 2*len(t.ends) > len(t.slots) {
		t.resize(2 * len(t.slots))
	}
	return true
}

// find returns the slot holding the kept key equal to key, whose hash is
// h, or the empty slot where it would go.
func (t *distinctTable) find(h uint64, key []byte) int {
	mask := uint64(len(t.slots) - 1)
	for s := h & mask; ; s = (s + 1) & mask {
		k := int(t.slots[s]) - 1
		if k < 0 || t.hashes[k] == h && bytes.Equal(t.key(k), key) {
			return int(s)
		}
	}
}

// key returns the k-th kept key.
func (t *distinctTable) key(k int) []byte {
	start := 0
	if k > 0 {
		start = t.ends[k-1]
	}
	return t.keys[start:t.ends[k]]
}

// resize rebuilds the table at size slots, a power of two, from the kept
// keys' hashes.
func (t *distinctTable) resize(size int) {
	if cap(t.slots) < size {
		t.slots = make([]int32, size)
	}
	t.slots = t.slots[:size]
	clear(t.slots)
	mask := uint64(size - 1)
	for k, h := range t.hashes {
		s := h & mask
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = int32(k + 1)
	}
}

// bytes is the memory t retains.
func (t *distinctTable) bytes() int64 {
	return int64(cap(t.keys)) + int64(cap(t.ends))*int64(unsafe.Sizeof(0)) +
		8*int64(cap(t.hashes)) + 4*int64(cap(t.slots))
}

// checkPredicate validates a WHERE tree against the schema at prepare time:
// every column must resolve and every operator must be one evalPredicate
// implements, so a prepared statement cannot fail at execution with a
// client-side error.
func checkPredicate(e Expr, schema *storage.Schema) error {
	switch n := e.(type) {
	case *ColumnRef:
		if schema.ColIndex(n.Name) < 0 {
			return fmt.Errorf("sql: unknown column %q", n.Name)
		}
	case *LitExpr:
	case *NotExpr:
		return checkPredicate(n.E, schema)
	case *IsNullExpr:
		return checkPredicate(n.E, schema)
	case *BinaryExpr:
		switch strings.ToUpper(n.Op) {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=":
		default:
			return fmt.Errorf("sql: unknown operator %q", n.Op)
		}
		if err := checkPredicate(n.L, schema); err != nil {
			return err
		}
		return checkPredicate(n.R, schema)
	default:
		return fmt.Errorf("sql: unsupported predicate node %T", e)
	}
	return nil
}

// truth is SQL three-valued logic.
type truth int8

const (
	tFalse truth = iota
	tTrue
	tUnknown
)

func (t truth) and(o truth) truth {
	if t == tFalse || o == tFalse {
		return tFalse
	}
	if t == tUnknown || o == tUnknown {
		return tUnknown
	}
	return tTrue
}

func (t truth) or(o truth) truth {
	if t == tTrue || o == tTrue {
		return tTrue
	}
	if t == tUnknown || o == tUnknown {
		return tUnknown
	}
	return tFalse
}

func (t truth) not() truth {
	switch t {
	case tTrue:
		return tFalse
	case tFalse:
		return tTrue
	default:
		return tUnknown
	}
}

// evalPredicate evaluates a WHERE predicate over a row with SQL
// three-valued logic; a row passes only when the result is TRUE.
func evalPredicate(e Expr, row storage.Tuple, schema *storage.Schema) (truth, error) {
	switch n := e.(type) {
	case *BinaryExpr:
		switch n.Op {
		case "AND", "OR":
			l, err := evalPredicate(n.L, row, schema)
			if err != nil {
				return tUnknown, err
			}
			r, err := evalPredicate(n.R, row, schema)
			if err != nil {
				return tUnknown, err
			}
			if n.Op == "AND" {
				return l.and(r), nil
			}
			return l.or(r), nil
		default:
			lv, err := evalValue(n.L, row, schema)
			if err != nil {
				return tUnknown, err
			}
			rv, err := evalValue(n.R, row, schema)
			if err != nil {
				return tUnknown, err
			}
			if lv.IsNull() || rv.IsNull() {
				return tUnknown, nil
			}
			c := storage.Compare(lv, rv)
			ok := false
			switch n.Op {
			case "=":
				ok = c == 0
			case "<>":
				ok = c != 0
			case "<":
				ok = c < 0
			case "<=":
				ok = c <= 0
			case ">":
				ok = c > 0
			case ">=":
				ok = c >= 0
			default:
				return tUnknown, fmt.Errorf("sql: unknown operator %q", n.Op)
			}
			if ok {
				return tTrue, nil
			}
			return tFalse, nil
		}
	case *NotExpr:
		v, err := evalPredicate(n.E, row, schema)
		if err != nil {
			return tUnknown, err
		}
		return v.not(), nil
	case *IsNullExpr:
		v, err := evalValue(n.E, row, schema)
		if err != nil {
			return tUnknown, err
		}
		isNull := v.IsNull()
		if n.Not {
			isNull = !isNull
		}
		if isNull {
			return tTrue, nil
		}
		return tFalse, nil
	case *ColumnRef, *LitExpr:
		v, err := evalValue(e, row, schema)
		if err != nil {
			return tUnknown, err
		}
		if v.IsNull() {
			return tUnknown, nil
		}
		if v.Kind() == storage.KindInt && v.Int64() != 0 {
			return tTrue, nil
		}
		return tFalse, nil
	}
	return tUnknown, fmt.Errorf("sql: unsupported predicate node %T", e)
}

func evalValue(e Expr, row storage.Tuple, schema *storage.Schema) (storage.Value, error) {
	switch n := e.(type) {
	case *ColumnRef:
		i := schema.ColIndex(n.Name)
		if i < 0 {
			return storage.Null, fmt.Errorf("sql: unknown column %q", n.Name)
		}
		return row[i], nil
	case *LitExpr:
		return litValue(n.Lit)
	}
	return storage.Null, fmt.Errorf("sql: expected value expression, got %T", e)
}
