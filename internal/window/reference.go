package window

import (
	"sort"

	"repro/internal/storage"
)

// Reference evaluates spec over a table by the definition, with no reliance
// on input ordering, segment structure or sliding-window algebra: partitions
// are collected by grouping, ordered by an explicit stable sort, and every
// frame is recomputed from scratch per row. It is O(n²) and exists as the
// testing oracle for the streaming evaluator and the whole reorder pipeline.
//
// The result is keyed by the original row index, so callers can compare
// regardless of output order.
func Reference(rows []storage.Tuple, spec Spec) ([]storage.Value, error) {
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

// referencePartition evaluates one partition by direct definition.
func referencePartition(part []storage.Tuple, spec Spec) ([]storage.Value, error) {
	n := len(part)
	out := make([]storage.Value, n)
	peersEqual := func(i, j int) bool {
		return storage.CompareSeq(part[i], part[j], spec.OK) == 0
	}
	switch spec.Kind {
	case RowNumber:
		for i := range out {
			out[i] = storage.Int(int64(i + 1))
		}
		return out, nil
	case Rank:
		// rank = 1 + count of rows strictly before the peer group.
		for i := range out {
			first := i
			for first > 0 && peersEqual(first-1, i) {
				first--
			}
			out[i] = storage.Int(int64(first + 1))
		}
		return out, nil
	case DenseRank:
		for i := range out {
			d := 1
			for j := 1; j <= i; j++ {
				if !peersEqual(j, j-1) {
					d++
				}
			}
			out[i] = storage.Int(int64(d))
		}
		return out, nil
	case PercentRank:
		for i := range out {
			first := i
			for first > 0 && peersEqual(first-1, i) {
				first--
			}
			if n == 1 {
				out[i] = storage.Float(0)
			} else {
				out[i] = storage.Float(float64(first) / float64(n-1))
			}
		}
		return out, nil
	case CumeDist:
		for i := range out {
			last := i
			for last+1 < n && peersEqual(last+1, i) {
				last++
			}
			out[i] = storage.Float(float64(last+1) / float64(n))
		}
		return out, nil
	case Ntile, Lead, Lag:
		// Positional functions share the streaming implementation's logic;
		// recompute directly.
		err := (&Evaluator{spec: spec}).partition(part, out)
		return out, err
	}

	// Framed functions: recompute each frame by scanning.
	ev := Evaluator{spec: spec}
	if err := ev.frameBounds(part); err != nil {
		return nil, err
	}
	lo, hi := ev.lo, ev.hi
	for i := range part {
		frame := part[lo[i]:hi[i]]
		switch spec.Kind {
		case FirstValue:
			if len(frame) > 0 {
				out[i] = frame[0][spec.Arg]
			} else {
				out[i] = storage.Null
			}
		case LastValue:
			if len(frame) > 0 {
				out[i] = frame[len(frame)-1][spec.Arg]
			} else {
				out[i] = storage.Null
			}
		case NthValue:
			if int(spec.N) >= 1 && int(spec.N) <= len(frame) {
				out[i] = frame[spec.N-1][spec.Arg]
			} else {
				out[i] = storage.Null
			}
		case Count:
			cnt := int64(0)
			for _, r := range frame {
				if spec.Arg < 0 || !r[spec.Arg].IsNull() {
					cnt++
				}
			}
			out[i] = storage.Int(cnt)
		case Sum, Avg:
			sumF := 0.0
			var sumI int64
			allInt := true
			cnt := int64(0)
			for _, r := range frame {
				v := r[spec.Arg]
				if v.IsNull() {
					continue
				}
				if v.Kind() == storage.KindInt {
					sumI += v.Int64()
					sumF += float64(v.Int64())
				} else {
					sumF += v.Float64()
					allInt = false
				}
				cnt++
			}
			switch {
			case cnt == 0:
				out[i] = storage.Null
			case spec.Kind == Avg:
				out[i] = storage.Float(sumF / float64(cnt))
			case allInt:
				out[i] = storage.Int(sumI)
			default:
				out[i] = storage.Float(sumF)
			}
		case Min, Max:
			best := storage.Null
			for _, r := range frame {
				v := r[spec.Arg]
				if v.IsNull() {
					continue
				}
				if best.IsNull() {
					best = v
					continue
				}
				c := storage.Compare(v, best)
				if (spec.Kind == Min && c < 0) || (spec.Kind == Max && c > 0) {
					best = v
				}
			}
			out[i] = best
		}
	}
	return out, nil
}
