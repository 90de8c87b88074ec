package storage

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/attrs"
)

// Tuple is a row: one Value per schema column.
type Tuple []Value

// Clone returns a deep-enough copy (values are immutable).
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Append returns a tuple extended with v. The receiver is never mutated;
// use it when the receiver's backing array may be shared.
func (t Tuple) Append(v Value) Tuple {
	out := make(Tuple, len(t)+1)
	copy(out, t)
	out[len(t)] = v
	return out
}

// Extend appends v, reusing the receiver's spare capacity when it has any
// — the in-place twin of Append. The caller must own the backing array
// past len(t): the executor's input arena and the TupleArena its spill
// readers decode into both reserve one slot per remaining chain step for
// exactly this, so a k-step chain extends every row k times with zero
// per-row allocations whether or not the row went through a spill file.
// Tuples with no spare capacity (DecodeTuple, the wire, engine-table rows)
// degrade to an Append-style copy via the append builtin.
func (t Tuple) Extend(v Value) Tuple {
	return append(t, v)
}

// Size approximates the in-memory footprint in bytes.
func (t Tuple) Size() int {
	n := 24 // slice header + allocation overhead
	for _, v := range t {
		n += v.Size()
	}
	return n
}

// String renders the tuple for diagnostics.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// ColumnType describes a schema column's declared type.
type ColumnType uint8

const (
	// TypeInt declares a 64-bit integer column.
	TypeInt ColumnType = iota
	// TypeFloat declares a float64 column.
	TypeFloat
	// TypeString declares a string column.
	TypeString
)

// String names the column type.
func (c ColumnType) String() string {
	switch c {
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeString:
		return "STRING"
	default:
		return fmt.Sprintf("ColumnType(%d)", uint8(c))
	}
}

// Column is one schema column.
type Column struct {
	Name string
	Type ColumnType
}

// Schema describes a relation's columns.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return &Schema{Columns: cols} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// ColIndex returns the index of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// MustCol returns the attribute ID of the named column; it panics when the
// column does not exist. Intended for tests and examples with known schemas.
func (s *Schema) MustCol(name string) attrs.ID {
	i := s.ColIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("storage: no column %q", name))
	}
	return attrs.ID(i)
}

// WithColumn returns a new schema extended by one column; the receiver is
// unchanged. Window-function evaluation extends schemas this way.
func (s *Schema) WithColumn(c Column) *Schema {
	cols := make([]Column, len(s.Columns)+1)
	copy(cols, s.Columns)
	cols[len(s.Columns)] = c
	return &Schema{Columns: cols}
}

// Names returns all column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// CompareAt orders tuples a and b by the ordering element e: direction and
// null placement are honored. Returns -1/0/+1.
func CompareAt(a, b Tuple, e attrs.Elem) int {
	va, vb := a[e.Attr], b[e.Attr]
	an, bn := va.IsNull(), vb.IsNull()
	if an || bn {
		switch {
		case an && bn:
			return 0
		case an:
			if e.NullsFirst {
				return -1
			}
			return 1
		default:
			if e.NullsFirst {
				return 1
			}
			return -1
		}
	}
	c := Compare(va, vb)
	if e.Desc {
		return -c
	}
	return c
}

// CompareUnder orders two values of one column under the ordering element
// e, whose Attr is not read: CompareAt for callers whose columns are not
// slots of a tuple. It wraps CompareAt rather than the reverse so that the
// sort kernels' CompareSeq stays inlinable around one call; the one-slot
// tuples stay on the stack.
func CompareUnder(v, w Value, e attrs.Elem) int {
	e.Attr = 0
	return CompareAt(Tuple{v}, Tuple{w}, e)
}

// CompareSeq orders tuples by an ordering sequence.
func CompareSeq(a, b Tuple, seq attrs.Seq) int {
	for _, e := range seq {
		if c := CompareAt(a, b, e); c != 0 {
			return c
		}
	}
	return 0
}

// EqualOn reports whether a and b agree on every attribute in set (NULLs
// compare equal, as in SQL grouping semantics).
func EqualOn(a, b Tuple, set attrs.Set) bool {
	// Ascending ID order straight off the bitmap: this runs once per row
	// in partition and segment detection.
	for m := uint64(set); m != 0; m &= m - 1 {
		id := bits.TrailingZeros64(m)
		if !Equal(a[id], b[id]) {
			return false
		}
	}
	return true
}

// EqualOnSeq reports whether a and b agree on every attribute of the
// sequence (directions are irrelevant for equality).
func EqualOnSeq(a, b Tuple, seq attrs.Seq) bool {
	for _, e := range seq {
		if !Equal(a[e.Attr], b[e.Attr]) {
			return false
		}
	}
	return true
}

// SortedOn reports whether rows are non-decreasing under seq. Used by tests
// and by the stream property validators.
func SortedOn(rows []Tuple, seq attrs.Seq) bool {
	for i := 1; i < len(rows); i++ {
		if CompareSeq(rows[i-1], rows[i], seq) > 0 {
			return false
		}
	}
	return true
}
