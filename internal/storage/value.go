// Package storage provides the tuple-level substrate: typed values, tuples,
// schemas, comparators and a compact binary serialization used by the
// spill-to-disk paths of the sort and hash operators.
package storage

import (
	"fmt"
	"math"
	"strconv"
	"unsafe"
)

// Kind enumerates the supported value types.
type Kind uint8

const (
	// KindNull is the SQL NULL marker; it carries no payload.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindString is an immutable byte string.
	KindString
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single column value in 16 bytes: one 8-byte payload and one
// pointer that doubles as the kind tag. The zero Value is SQL NULL.
//
//	ptr == nil        NULL   (num unused)
//	ptr == tagInt     INT    num = the int64's bits
//	ptr == tagFloat   FLOAT  num = math.Float64bits
//	ptr == tagEmpty   STRING of length 0
//	otherwise         STRING ptr = the string's data pointer, num = its length
//
// The tags are addresses of package-level bytes, which no Go string's data
// can share, so the four cases are disjoint; the GC sees ptr as an ordinary
// pointer and keeps string data alive through it. Two equal strings held
// at different addresses differ in ptr, so struct equality would be wrong:
// the zero-size func array makes == on Value (and on anything containing
// one) a compile error. Use Equal (SQL semantics, numerics widen) or
// Identical (same kind, same payload).
//
// unsafe.Sizeof(Value{}) is what the process pays per slot; Size is what
// the paper's M-byte budget charges, and the two are deliberately
// independent (see Size).
type Value struct {
	_   [0]func()
	num uint64
	ptr unsafe.Pointer
}

var (
	tagBytes [3]byte
	tagInt   = unsafe.Pointer(&tagBytes[0])
	tagFloat = unsafe.Pointer(&tagBytes[1])
	tagEmpty = unsafe.Pointer(&tagBytes[2])
)

// Null is the SQL NULL value.
var Null = Value{}

// Int wraps an int64.
func Int(v int64) Value { return Value{num: uint64(v), ptr: tagInt} }

// Float wraps a float64.
func Float(v float64) Value { return Value{num: math.Float64bits(v), ptr: tagFloat} }

// String wraps a string.
func StringVal(v string) Value {
	if len(v) == 0 {
		return Value{ptr: tagEmpty}
	}
	return Value{num: uint64(len(v)), ptr: unsafe.Pointer(unsafe.StringData(v))}
}

// Kind returns the value's kind.
func (v Value) Kind() Kind {
	switch v.ptr {
	case nil:
		return KindNull
	case tagInt:
		return KindInt
	case tagFloat:
		return KindFloat
	default:
		return KindString
	}
}

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.ptr == nil }

// Int64 returns the integer payload; it panics on non-integers.
func (v Value) Int64() int64 {
	if v.ptr != tagInt {
		panic("storage: Int64 on " + v.Kind().String())
	}
	return int64(v.num)
}

// Float64 returns the float payload, widening integers.
func (v Value) Float64() float64 {
	switch v.ptr {
	case tagFloat:
		return math.Float64frombits(v.num)
	case tagInt:
		return float64(int64(v.num))
	}
	panic("storage: Float64 on " + v.Kind().String())
}

// Str returns the string payload; it panics on non-strings.
func (v Value) Str() string {
	if v.Kind() != KindString {
		panic("storage: Str on " + v.Kind().String())
	}
	return v.str()
}

// str is Str without the kind check; v must be a string.
func (v Value) str() string {
	if v.ptr == tagEmpty {
		return ""
	}
	return unsafe.String((*byte)(v.ptr), int(v.num))
}

// String renders the value for display. NULL renders as "-" matching the
// paper's sample output in Example 1.
func (v Value) String() string {
	switch v.Kind() {
	case KindNull:
		return "-"
	case KindInt:
		return strconv.FormatInt(int64(v.num), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.num), 'g', -1, 64)
	default:
		return v.str()
	}
}

// numeric reports whether the value is an INT or a FLOAT.
func (v Value) numeric() bool { return v.ptr == tagInt || v.ptr == tagFloat }

// Compare orders two non-NULL values: -1 if v < w, 0 if equal, +1 if v > w.
// Integers and floats compare numerically with each other. Comparing a
// numeric against a string orders the numeric first (a total order is
// required by the sort operators; mixed-kind columns do not occur in
// well-typed relations but the order must still be total).
//
// NULL handling (nulls first/last, per ordering element) is the
// responsibility of CompareAt and the comparators built on it.
func Compare(v, w Value) int {
	if v.ptr == tagInt && w.ptr == tagInt {
		return cmpOrdered(int64(v.num), int64(w.num))
	}
	if v.ptr == nil || w.ptr == nil {
		// NULLs compare equal to each other and precede non-NULLs in this
		// raw ordering; ordering elements override placement.
		switch {
		case v.ptr == w.ptr:
			return 0
		case v.ptr == nil:
			return -1
		default:
			return 1
		}
	}
	vn, wn := v.numeric(), w.numeric()
	switch {
	case vn && wn:
		// A NaN is neither below nor above anything and so compares 0.
		return cmpOrdered(v.Float64(), w.Float64())
	case vn:
		return -1
	case wn:
		return 1
	}
	return cmpOrdered(v.str(), w.str())
}

// cmpOrdered is not cmp.Compare, which orders a NaN below every float.
func cmpOrdered[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports deep value equality (NULL equals NULL).
func Equal(v, w Value) bool { return Compare(v, w) == 0 }

// Identical reports whether v and w are the same kind with the same
// payload: no numeric widening (Int(1) and Float(1) differ), floats by bit
// pattern (a NaN is identical to itself, +0 and -0 differ), strings by
// content. It is what == meant on the old comparable layout.
func Identical(v, w Value) bool {
	if v.Kind() != KindString || w.Kind() != KindString {
		return v.ptr == w.ptr && v.num == w.num
	}
	return v.str() == w.str()
}

// Size returns the bytes the value is charged against an operator's memory
// budget: 16 per NULL or numeric, 24 + length per string. This is the
// paper's cost model, not unsafe.Sizeof — run lengths, bucket spills and
// block counts all derive from it, so it must not follow the layout.
func (v Value) Size() int {
	if v.Kind() == KindString {
		return 24 + int(v.num)
	}
	return 16
}
