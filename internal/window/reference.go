package window

import (
	"cmp"
	"fmt"
	"sort"

	"repro/internal/storage"
)

// Reference evaluates spec over a table by the definition, with no reliance
// on input ordering, segment structure, sliding-window algebra or any of the
// Evaluator's code: partitions are collected by grouping, ordered by an
// explicit stable sort, and every value is decided from scratch per row —
// a rank by counting the rows ordered before it, an ntile by its bucket's
// closed form, a frame by asking of every row of the partition whether it
// lies between the two bounds. It is O(n²) per partition and exists as the
// testing oracle for the streaming evaluator and the whole reorder pipeline.
//
// The result is keyed by the original row index, so callers can compare
// regardless of output order.
func Reference(rows []storage.Tuple, spec Spec) ([]storage.Value, error) {
	if spec.Kind.needsArg() && spec.Arg < 0 {
		return nil, fmt.Errorf("window: %s requires an argument column", spec.Kind)
	}
	n := len(rows)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Group by WPK via sorting indices on the partition key, then stable
	// order each partition on WOK.
	pkSeq := spec.PK.AscSeq()
	sort.SliceStable(idx, func(a, b int) bool {
		if c := storage.CompareSeq(rows[idx[a]], rows[idx[b]], pkSeq); c != 0 {
			return c < 0
		}
		return storage.CompareSeq(rows[idx[a]], rows[idx[b]], spec.OK) < 0
	})
	out := make([]storage.Value, n)
	start := 0
	for start < n {
		end := start + 1
		for end < n && storage.EqualOn(rows[idx[start]], rows[idx[end]], spec.PK) {
			end++
		}
		part := make([]storage.Tuple, end-start)
		for i := start; i < end; i++ {
			part[i-start] = rows[idx[i]]
		}
		vals, err := referencePartition(part, spec)
		if err != nil {
			return nil, err
		}
		for i := start; i < end; i++ {
			out[idx[i]] = vals[i-start]
		}
		start = end
	}
	return out, nil
}

// referencePartition evaluates one partition, ordered on WOK, by direct
// definition.
func referencePartition(part []storage.Tuple, spec Spec) ([]storage.Value, error) {
	n := len(part)
	out := make([]storage.Value, n)
	order := func(j, i int) int { return storage.CompareSeq(part[j], part[i], spec.OK) }
	var members []int // the current row's frame, in order
	for i := range part {
		switch spec.Kind {
		case RowNumber:
			out[i] = storage.Int(int64(i + 1))
		case Rank, DenseRank, PercentRank, CumeDist:
			// before counts the rows ordered before i's peers, groups the peer
			// groups among them, upTo the rows up to and including its peers.
			before, groups, upTo := 0, 0, 0
			for j := range part {
				c := order(j, i)
				if c < 0 {
					before++
					if j == 0 || order(j-1, j) != 0 {
						groups++
					}
				}
				if c <= 0 {
					upTo++
				}
			}
			switch spec.Kind {
			case Rank:
				out[i] = storage.Int(int64(before + 1))
			case DenseRank:
				out[i] = storage.Int(int64(groups + 1))
			case PercentRank:
				out[i] = storage.Float(0)
				if n > 1 {
					out[i] = storage.Float(float64(before) / float64(n-1))
				}
			default:
				out[i] = storage.Float(float64(upTo) / float64(n))
			}
		case Ntile:
			if spec.N < 1 {
				return nil, fmt.Errorf("window: ntile bucket count %d", spec.N)
			}
			out[i] = storage.Int(ntileBucket(int64(i), int64(n), spec.N))
		case Lead, Lag:
			// The row N away, compared without forming i ± N.
			out[i] = spec.Default
			if spec.Kind == Lead && spec.N < int64(n-i) {
				out[i] = part[i+int(spec.N)][spec.Arg]
			} else if spec.Kind == Lag && spec.N <= int64(i) {
				out[i] = part[i-int(spec.N)][spec.Arg]
			}
		default:
			members = members[:0]
			for j := range part {
				in, err := inFrame(part, spec, i, j)
				if err != nil {
					return nil, err
				}
				if in {
					members = append(members, j)
				}
			}
			v, err := overFrame(part, spec, members)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
	}
	return out, nil
}

// ntileBucket is the bucket of position p among n rows dealt into buckets
// near-equal buckets: n mod buckets of them hold one row more, and come first.
// More buckets than rows leaves every row a bucket of its own.
func ntileBucket(p, n, buckets int64) int64 {
	size, big := n/buckets, n%buckets
	if p < big*(size+1) {
		return p/(size+1) + 1
	}
	return big + (p-big*(size+1))/size + 1
}

// inFrame reports whether row j of the partition lies in row i's frame: at
// or after its start bound, and at or before its end bound.
func inFrame(part []storage.Tuple, spec Spec, i, j int) (bool, error) {
	f := spec.EffectiveFrame()
	afterStart, err := boundSide(part, spec, f.Mode, f.Start, i, j)
	if err != nil || afterStart < 0 {
		return false, err
	}
	beforeEnd, err := boundSide(part, spec, f.Mode, f.End, i, j)
	return beforeEnd <= 0, err
}

// boundSide orders row j against bound b of row i's frame: negative when j
// lies before the bound, zero on it, positive after it. ROWS bounds are
// position differences, RANGE bounds differences of the one ordering key
// in the sort direction, with NULL keys sorted first or last, beyond any
// offset; a row with a NULL key has its NULL peer group for an offset bound,
// and RANGE CURRENT ROW is the current row's peers.
func boundSide(part []storage.Tuple, spec Spec, mode FrameMode, b Bound, i, j int) (int, error) {
	switch b.Type {
	case UnboundedPreceding:
		return 1, nil
	case UnboundedFollowing:
		return -1, nil
	case CurrentRow:
		if mode == Rows {
			return cmp.Compare(j, i), nil
		}
		return storage.CompareSeq(part[j], part[i], spec.OK), nil
	}
	off := b.Offset
	if b.Type == Preceding {
		off = -off
	}
	if mode == Rows {
		return cmp.Compare(int64(j-i), off), nil
	}
	if len(spec.OK) != 1 {
		return 0, fmt.Errorf("window: RANGE offset frame requires exactly one ordering key")
	}
	e := spec.OK[0]
	cur, v := part[i][e.Attr], part[j][e.Attr]
	switch {
	case cur.IsNull():
		return storage.CompareAt(part[j], part[i], e), nil
	case cur.Kind() == storage.KindString || v.Kind() == storage.KindString:
		return 0, fmt.Errorf("window: RANGE offset frame requires a numeric ordering key")
	case v.IsNull() && e.NullsFirst:
		return -1, nil
	case v.IsNull():
		return 1, nil
	}
	along := v.Float64() - cur.Float64()
	if e.Desc {
		along = -along
	}
	return cmp.Compare(along, float64(off)), nil
}

// overFrame computes a framed function over the frame rows members, in
// order.
func overFrame(part []storage.Tuple, spec Spec, members []int) (storage.Value, error) {
	switch spec.Kind {
	case FirstValue, LastValue, NthValue:
		k := int64(1)
		switch spec.Kind {
		case LastValue:
			k = int64(len(members))
		case NthValue:
			k = spec.N
		}
		if k < 1 || k > int64(len(members)) {
			return storage.Null, nil
		}
		return part[members[k-1]][spec.Arg], nil
	case Count:
		cnt := int64(0)
		for _, j := range members {
			if spec.Arg < 0 || !part[j][spec.Arg].IsNull() {
				cnt++
			}
		}
		return storage.Int(cnt), nil
	case Sum, Avg:
		sumF, sumI, allInt, cnt := 0.0, int64(0), true, int64(0)
		for _, j := range members {
			switch v := part[j][spec.Arg]; v.Kind() {
			case storage.KindNull:
				continue
			case storage.KindInt:
				sumI += v.Int64()
				sumF += float64(v.Int64())
			case storage.KindFloat:
				sumF += v.Float64()
				allInt = false
			default:
				return storage.Null, fmt.Errorf("window: %s over non-numeric column", spec.Kind)
			}
			cnt++
		}
		switch {
		case cnt == 0:
			return storage.Null, nil
		case spec.Kind == Avg:
			return storage.Float(sumF / float64(cnt)), nil
		case allInt:
			return storage.Int(sumI), nil
		}
		return storage.Float(sumF), nil
	case Min, Max:
		best := storage.Null
		for _, j := range members {
			v := part[j][spec.Arg]
			if v.IsNull() {
				continue
			}
			c := storage.Compare(v, best)
			if best.IsNull() || (spec.Kind == Min && c < 0) || (spec.Kind == Max && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return storage.Null, fmt.Errorf("window: unimplemented function %s", spec.Kind)
}
