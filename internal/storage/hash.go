package storage

import "repro/internal/attrs"

// Streaming FNV-1a over the AppendTuple byte sequence, without building
// the buffer. The partitioning hash of the parallel and sharded executors
// is defined as FNV-1a over the concatenated single-value tuple encodings
// of the key attributes; HashValueFNV folds one value into the running
// hash byte-identically to hashing AppendTuple(dst, Tuple{v}) — but for
// −0.0, hashed as the +0.0 it equals — so rows partition exactly as they
// did when the hash materialized the encoding: a mixed-version cluster
// must never disagree on row placement.

// HashSeedFNV is the FNV-64a offset basis: the initial running hash.
const HashSeedFNV uint64 = 14695981039346656037

const fnvPrime64 uint64 = 1099511628211

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvUvarint(h uint64, v uint64) uint64 {
	for v >= 0x80 {
		h = fnvByte(h, byte(v)|0x80)
		v >>= 7
	}
	return fnvByte(h, byte(v))
}

// HashKeyFNV is FNV-1a over the concatenated single-value tuple encodings
// of t's key attributes, streamed: the hash Hashed Sort picks buckets by
// and, finalized, the partitioning hash of every placement decision
// (exec.PartitionRows).
func HashKeyFNV(t Tuple, key []attrs.ID) uint64 {
	h := HashSeedFNV
	for _, id := range key {
		h = HashValueFNV(h, t[id])
	}
	return h
}

// HashValueFNV advances h by the encoding of the single-value tuple {v}:
// uvarint column count (always 1), the kind byte, then the value payload
// in the spill codec's layout.
func HashValueFNV(h uint64, v Value) uint64 {
	h = fnvByte(h, 1)
	switch v.ptr {
	case nil:
		h = fnvByte(h, byte(KindNull))
	case tagInt:
		h = fnvByte(h, byte(KindInt))
		uv := v.num << 1
		if int64(v.num) < 0 {
			uv = ^uv
		}
		h = fnvUvarint(h, uv)
	case tagFloat:
		h = fnvByte(h, byte(KindFloat))
		num := v.num
		if num == 1<<63 {
			num = 0 // −0.0 equals +0.0 (Compare), so it hashes as +0.0
		}
		for bits := 0; bits < 64; bits += 8 {
			h = fnvByte(h, byte(num>>bits))
		}
	default:
		h = fnvByte(h, byte(KindString))
		h = fnvUvarint(h, v.num)
		s := v.str()
		for i := 0; i < len(s); i++ {
			h = fnvByte(h, s[i])
		}
	}
	return h
}
