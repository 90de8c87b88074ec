package window

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/storage"
)

// Evaluator computes window functions partition by partition over rows
// already in an order that matches each (EvaluateSlice, ExtendSlice). It
// owns every buffer a partition needs — frame bounds, peer groups, prefix
// sums, the min/max deque, ExtendSlice's values — and reuses them from one
// partition and one function to the next, so a chain that evaluates all its
// functions with one Evaluator allocates them once, for its largest
// partition. The zero value is ready to use. Not safe for concurrent use.
type Evaluator struct {
	spec Spec // the function being evaluated

	lo, hi       []int // frame [lo, hi) per row
	peerS, peerE []int // peer group [start, end) per row
	sumF         []float64
	sumI, counts []int64
	deque        []int
	scratch      []storage.Value // ExtendSlice's values of one partition
}

// sized returns buf resized to n elements, reallocating only to grow. The
// contents are unspecified: callers write every element they read.
func sized[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}

// clampOffset converts a row offset within a partition of n rows to an int
// that can be added to a row index without wrapping: every offset of n or
// more reaches past the partition from any row of it, as n itself does.
func clampOffset(off int64, n int) int {
	return int(min(max(off, -int64(n)), int64(n)))
}

// partition evaluates the spec over one window partition (rows already
// ordered on WOK) into out, one derived value per row; len(out) must equal
// len(rows).
func (e *Evaluator) partition(rows []storage.Tuple, out []storage.Value) error {
	spec := e.spec
	n := len(rows)
	switch spec.Kind {
	case RowNumber:
		for i := range out {
			out[i] = storage.Int(int64(i + 1))
		}
		return nil

	case Rank, DenseRank, PercentRank, CumeDist:
		// Peer groups (rows equal on WOK) are walked as [lo, hi).
		dense := 0
		for lo, hi := 0, 0; lo < n; lo = hi {
			hi = lo + 1
			for hi < n && storage.CompareSeq(rows[hi-1], rows[hi], spec.OK) == 0 {
				hi++
			}
			dense++
			for i := lo; i < hi; i++ {
				switch spec.Kind {
				case Rank:
					out[i] = storage.Int(int64(lo + 1))
				case DenseRank:
					out[i] = storage.Int(int64(dense))
				case PercentRank:
					if n == 1 {
						out[i] = storage.Float(0)
					} else {
						out[i] = storage.Float(float64(lo) / float64(n-1))
					}
				case CumeDist:
					out[i] = storage.Float(float64(hi) / float64(n))
				}
			}
		}
		return nil

	case Ntile:
		buckets := spec.N
		if buckets < 1 {
			return fmt.Errorf("window: ntile bucket count %d", buckets)
		}
		if buckets > int64(n) {
			buckets = int64(n)
		}
		base := int64(n) / buckets
		extra := int64(n) % buckets
		i := 0
		for b := int64(1); b <= buckets; b++ {
			size := base
			if b <= extra {
				size++
			}
			for j := int64(0); j < size && i < n; j++ {
				out[i] = storage.Int(b)
				i++
			}
		}
		return nil

	case Lead, Lag:
		// N is the explicit offset; the SQL layer supplies the default of 1
		// when the argument is omitted. N = 0 legitimately means "this row".
		// An offset past the partition's length reaches no row, however far
		// past: clamped, i ± off cannot wrap.
		off := clampOffset(spec.N, n)
		if spec.Kind == Lag {
			off = -off
		}
		for i := range rows {
			j := i + off
			if j >= 0 && j < n {
				out[i] = rows[j][spec.Arg]
			} else {
				out[i] = spec.Default
			}
		}
		return nil
	}

	// Framed functions.
	if err := e.frameBounds(rows); err != nil {
		return err
	}
	lo, hi := e.lo, e.hi
	switch spec.Kind {
	case FirstValue:
		for i := range rows {
			if lo[i] < hi[i] {
				out[i] = rows[lo[i]][spec.Arg]
			} else {
				out[i] = storage.Null
			}
		}
	case LastValue:
		for i := range rows {
			if lo[i] < hi[i] {
				out[i] = rows[hi[i]-1][spec.Arg]
			} else {
				out[i] = storage.Null
			}
		}
	case NthValue:
		for i := range rows {
			idx := lo[i] + clampOffset(spec.N-1, n)
			if idx >= lo[i] && idx < hi[i] {
				out[i] = rows[idx][spec.Arg]
			} else {
				out[i] = storage.Null
			}
		}
	case Count:
		if spec.Arg < 0 {
			for i := range rows {
				out[i] = storage.Int(int64(hi[i] - lo[i]))
			}
			break
		}
		pref := sized(e.counts, n+1)
		e.counts = pref
		pref[0] = 0
		for i, r := range rows {
			pref[i+1] = pref[i]
			if !r[spec.Arg].IsNull() {
				pref[i+1]++
			}
		}
		for i := range rows {
			out[i] = storage.Int(pref[hi[i]] - pref[lo[i]])
		}
	case Sum, Avg:
		allInt, err := e.prefixSums(rows)
		if err != nil {
			return err
		}
		sumF, sumI, counts := e.sumF, e.sumI, e.counts
		for i := range rows {
			cnt := counts[hi[i]] - counts[lo[i]]
			if cnt == 0 {
				out[i] = storage.Null
				continue
			}
			if spec.Kind == Avg {
				out[i] = storage.Float((sumF[hi[i]] - sumF[lo[i]]) / float64(cnt))
			} else if allInt {
				out[i] = storage.Int(sumI[hi[i]] - sumI[lo[i]])
			} else {
				out[i] = storage.Float(sumF[hi[i]] - sumF[lo[i]])
			}
		}
	case Min, Max:
		e.slidingExtreme(rows, out)
	default:
		return fmt.Errorf("window: unimplemented function %s", spec.Kind)
	}
	return nil
}

// peerBounds maps each row to its peer group's [start, end) in e.peerS and
// e.peerE.
func (e *Evaluator) peerBounds(rows []storage.Tuple) {
	n := len(rows)
	e.peerS, e.peerE = sized(e.peerS, n), sized(e.peerE, n)
	i := 0
	for i < n {
		j := i + 1
		for j < n && storage.CompareSeq(rows[i], rows[j], e.spec.OK) == 0 {
			j++
		}
		for k := i; k < j; k++ {
			e.peerS[k], e.peerE[k] = i, j
		}
		i = j
	}
}

// frameBounds computes each row's frame [lo, hi) into e.lo and e.hi.
func (e *Evaluator) frameBounds(rows []storage.Tuple) error {
	spec := e.spec
	n := len(rows)
	e.lo, e.hi = sized(e.lo, n), sized(e.hi, n)
	f := spec.EffectiveFrame()
	if f.Mode == Range && (f.Start.Type == CurrentRow || f.End.Type == CurrentRow) {
		e.peerBounds(rows)
	}
	boundIdx := func(i int, b Bound, isStart bool) (int, error) {
		switch b.Type {
		case UnboundedPreceding:
			return 0, nil
		case UnboundedFollowing:
			return n, nil
		case CurrentRow:
			if f.Mode == Range {
				if isStart {
					return e.peerS[i], nil
				}
				return e.peerE[i], nil
			}
			if isStart {
				return i, nil
			}
			return i + 1, nil
		case Preceding, Following:
			if f.Mode == Rows {
				d := clampOffset(b.Offset, n)
				if b.Type == Preceding {
					d = -d
				}
				idx := i + d
				if !isStart {
					idx++
				}
				if idx < 0 {
					idx = 0
				}
				if idx > n {
					idx = n
				}
				return idx, nil
			}
			return rangeOffsetBound(rows, spec, i, b, isStart)
		}
		return 0, fmt.Errorf("window: unknown bound type %d", b.Type)
	}
	for i := range rows {
		l, err := boundIdx(i, f.Start, true)
		if err != nil {
			return err
		}
		h, err := boundIdx(i, f.End, false)
		if err != nil {
			return err
		}
		if h < l {
			h = l
		}
		e.lo[i], e.hi[i] = l, h
	}
	return nil
}

// rangeOffsetBound resolves a RANGE k PRECEDING/FOLLOWING bound: it needs a
// single numeric ordering key. Rows with a NULL key frame their own peer
// group (SQL treats NULL as incomparable).
func rangeOffsetBound(rows []storage.Tuple, spec Spec, i int, b Bound, isStart bool) (int, error) {
	if len(spec.OK) != 1 {
		return 0, fmt.Errorf("window: RANGE offset frame requires exactly one ordering key")
	}
	e := spec.OK[0]
	cur := rows[i][e.Attr]
	if cur.IsNull() {
		// NULL peer group.
		lo, hi := i, i+1
		for lo > 0 && rows[lo-1][e.Attr].IsNull() {
			lo--
		}
		for hi < len(rows) && rows[hi][e.Attr].IsNull() {
			hi++
		}
		if isStart {
			return lo, nil
		}
		return hi, nil
	}
	if cur.Kind() == storage.KindString {
		return 0, fmt.Errorf("window: RANGE offset frame requires a numeric ordering key")
	}
	curF := cur.Float64()
	off := float64(b.Offset)
	// Logical threshold in ordering direction: preceding moves against the
	// sort direction, following with it.
	var threshold float64
	sign := 1.0
	if e.Desc {
		sign = -1
	}
	if b.Type == Preceding {
		threshold = curF - sign*off
	} else {
		threshold = curF + sign*off
	}
	n := len(rows)
	inOrder := func(v float64) float64 { return sign * v } // map to ascending space
	tt := inOrder(threshold)
	nonNull := func(j int) bool { return !rows[j][e.Attr].IsNull() }
	if isStart {
		// First row with key ≥ threshold (ascending space), skipping NULLs
		// on the first-sorted side.
		return sort.Search(n, func(j int) bool {
			if !nonNull(j) {
				// NULLs first sort before everything, NULLs last after.
				return !e.NullsFirst
			}
			return inOrder(rows[j][e.Attr].Float64()) >= tt
		}), nil
	}
	// One past the last row with key ≤ threshold.
	return sort.Search(n, func(j int) bool {
		if !nonNull(j) {
			return !e.NullsFirst
		}
		return inOrder(rows[j][e.Attr].Float64()) > tt
	}), nil
}

// prefixSums builds prefix aggregates over the argument column into
// e.sumF, e.sumI and e.counts, and reports whether every value was an
// integer.
func (e *Evaluator) prefixSums(rows []storage.Tuple) (allInt bool, err error) {
	n := len(rows)
	e.sumF, e.sumI, e.counts = sized(e.sumF, n+1), sized(e.sumI, n+1), sized(e.counts, n+1)
	sumF, sumI, counts := e.sumF, e.sumI, e.counts
	sumF[0], sumI[0], counts[0] = 0, 0, 0
	allInt = true
	for i, r := range rows {
		v := r[e.spec.Arg]
		sumF[i+1] = sumF[i]
		sumI[i+1] = sumI[i]
		counts[i+1] = counts[i]
		if v.IsNull() {
			continue
		}
		switch v.Kind() {
		case storage.KindInt:
			sumF[i+1] += float64(v.Int64())
			sumI[i+1] += v.Int64()
		case storage.KindFloat:
			sumF[i+1] += v.Float64()
			allInt = false
		default:
			return false, fmt.Errorf("window: %s over non-numeric column", e.spec.Kind)
		}
		counts[i+1]++
	}
	return allInt, nil
}

// slidingExtreme computes min/max over the frames in e.lo/e.hi with a
// monotonic deque; all supported frame shapes have non-decreasing lo and
// hi, so the windows advance monotonically. NULL argument values are
// skipped (SQL semantics).
func (e *Evaluator) slidingExtreme(rows []storage.Tuple, out []storage.Value) {
	spec, lo, hi := e.spec, e.lo, e.hi
	better := func(a, b storage.Value) bool { // a strictly better than b
		c := storage.Compare(a, b)
		if spec.Kind == Min {
			return c < 0
		}
		return c > 0
	}
	// Candidate row indices, best at deque[head]; popping the front moves
	// head so the buffer keeps its capacity for the next partition.
	deque, head := e.deque[:0], 0
	nextIn := 0
	curLo := 0
	for i := range rows {
		if lo[i] < curLo || hi[i] < nextIn {
			// Non-monotonic frame (cannot happen with supported bounds);
			// fall back to a direct scan for this row.
			out[i] = scanExtreme(rows, spec, lo[i], hi[i], better)
			continue
		}
		for nextIn < hi[i] {
			v := rows[nextIn][spec.Arg]
			if !v.IsNull() {
				for len(deque) > head && !better(rows[deque[len(deque)-1]][spec.Arg], v) {
					deque = deque[:len(deque)-1]
				}
				deque = append(deque, nextIn)
			}
			nextIn++
		}
		curLo = lo[i]
		for len(deque) > head && deque[head] < curLo {
			head++
		}
		if len(deque) == head {
			out[i] = storage.Null
		} else {
			out[i] = rows[deque[head]][spec.Arg]
		}
	}
	e.deque = deque
}

func scanExtreme(rows []storage.Tuple, spec Spec, lo, hi int, better func(a, b storage.Value) bool) storage.Value {
	best := storage.Null
	for j := lo; j < hi && j < len(rows); j++ {
		v := rows[j][spec.Arg]
		if v.IsNull() {
			continue
		}
		if best.IsNull() || better(v, best) {
			best = v
		}
	}
	return best
}
