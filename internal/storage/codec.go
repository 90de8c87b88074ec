package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The binary tuple codec used by the spill paths. Layout per tuple:
//
//	uvarint column count
//	per column: 1 byte kind, then payload
//	  KindNull:   nothing
//	  KindInt:    varint
//	  KindFloat:  8 bytes little-endian IEEE 754
//	  KindString: uvarint length + bytes
//
// The codec is self-describing per tuple so that heterogenous spill files
// (e.g. buckets of different window chains) need no schema side-channel.

// ErrCorrupt reports a malformed encoded tuple.
var ErrCorrupt = errors.New("storage: corrupt tuple encoding")

// AppendTuple appends the encoding of t to dst and returns the result.
func AppendTuple(dst []byte, t Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		switch v.ptr {
		case nil:
			dst = append(dst, byte(KindNull))
		case tagInt:
			dst = append(dst, byte(KindInt))
			dst = binary.AppendVarint(dst, int64(v.num))
		case tagFloat:
			dst = append(dst, byte(KindFloat))
			dst = binary.LittleEndian.AppendUint64(dst, v.num)
		default:
			dst = append(dst, byte(KindString))
			dst = binary.AppendUvarint(dst, v.num)
			dst = append(dst, v.str()...)
		}
	}
	return dst
}

// EncodedSize returns the exact number of bytes AppendTuple will add for t.
func EncodedSize(t Tuple) int {
	n := uvarintLen(uint64(len(t)))
	for _, v := range t {
		n++ // kind byte
		switch v.ptr {
		case nil:
		case tagInt:
			n += varintLen(int64(v.num))
		case tagFloat:
			n += 8
		default:
			n += uvarintLen(v.num) + int(v.num)
		}
	}
	return n
}

// DecodeTuple decodes one tuple from buf, returning the tuple and the number
// of bytes consumed. The tuple and its strings are fresh allocations with no
// spare capacity; the spill readers decode through a TupleArena instead.
func DecodeTuple(buf []byte) (Tuple, int, error) {
	ncols, pos, err := decodeArity(buf)
	if err != nil {
		return nil, 0, err
	}
	t := make(Tuple, ncols)
	if pos, err = decodeValues(t, buf, pos, nil); err != nil {
		return nil, 0, err
	}
	return t, pos, nil
}

// decodeArity reads the column count and returns it with the offset of the
// first value. A tuple cut off by the end of a spill reader's buffer fails
// here on every refill, so the error is the bare sentinel: the reader says
// more when the file itself ends mid-tuple.
func decodeArity(buf []byte) (ncols, pos int, err error) {
	n, pos := binary.Uvarint(buf)
	if pos <= 0 {
		return 0, 0, ErrCorrupt
	}
	if n > uint64(len(buf)) { // cheap sanity bound: ≥1 byte per column
		return 0, 0, ErrCorrupt
	}
	return int(n), pos, nil
}

// decodeValues fills t from buf[pos:] and returns the offset past the last
// value. String payloads are copied into a's byte slab, or allocated one by
// one when a is nil.
func decodeValues(t Tuple, buf []byte, pos int, a *TupleArena) (int, error) {
	for i := range t {
		if pos >= len(buf) {
			return 0, ErrCorrupt
		}
		kind := Kind(buf[pos])
		pos++
		switch kind {
		case KindNull:
			t[i] = Null
		case KindInt:
			v, n := binary.Varint(buf[pos:])
			if n <= 0 {
				return 0, ErrCorrupt
			}
			pos += n
			t[i] = Int(v)
		case KindFloat:
			if pos+8 > len(buf) {
				return 0, ErrCorrupt
			}
			t[i] = Value{num: binary.LittleEndian.Uint64(buf[pos:]), ptr: tagFloat}
			pos += 8
		case KindString:
			l, n := binary.Uvarint(buf[pos:])
			if n <= 0 {
				return 0, ErrCorrupt
			}
			pos += n
			if uint64(pos)+l > uint64(len(buf)) {
				return 0, ErrCorrupt
			}
			if a != nil {
				t[i] = a.stringVal(buf[pos : pos+int(l)])
			} else {
				t[i] = StringVal(string(buf[pos : pos+int(l)]))
			}
			pos += int(l)
		default:
			return 0, fmt.Errorf("%w: kind %d", ErrCorrupt, kind)
		}
	}
	return pos, nil
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func varintLen(v int64) int {
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	return uvarintLen(uv)
}
