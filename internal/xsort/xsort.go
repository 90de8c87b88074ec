// Package xsort implements the external merge sort underlying all three
// reordering operators of the paper: replacement-selection run formation
// (expected run length 2M, Section 3.4) followed by F-way merging, with a
// fully in-memory fast path when the input fits in the sort budget.
//
// Run formation and every merge are played on one tournament tree of
// losers (loserTree), one counted comparison per level; the in-memory path
// is the grouped sort (grouped.go), which places rows by a hash of a
// low-cardinality leading key column and leaves the rest to the merge
// kernel Stable. Both keep equal keys in input order — a
// match between equal keys goes to the earlier arrival, or the earlier run —
// so a sort returns the same permutation whether or not its budget made it
// spill. The tree is borrowed from a process-wide free list for one phase
// and given back, cleared, at its end.
//
// All spill traffic goes through a pagestore.Store so experiments observe
// exact block-I/O counts, and every key comparison is counted, giving the
// second currency of the paper's cost analysis (Section 3.4's
// O(n log(n/k)) vs O(n log n) argument for Segmented Sort).
package xsort

import (
	"fmt"

	"repro/internal/attrs"
	"repro/internal/pagestore"
	"repro/internal/storage"
)

// Input supplies tuples one at a time; it returns false when exhausted.
type Input func() (storage.Tuple, bool)

// SliceInput adapts a tuple slice to an Input.
func SliceInput(tuples []storage.Tuple) Input {
	i := 0
	return func() (storage.Tuple, bool) {
		if i >= len(tuples) {
			return nil, false
		}
		t := tuples[i]
		i++
		return t, true
	}
}

// Sorter configures one external sort. The zero value is not usable; set at
// least Key and Store. MemoryBytes ≤ 0 means "unlimited" (always in-memory).
type Sorter struct {
	Key         attrs.Seq
	MemoryBytes int
	Store       *pagestore.Store

	// Comparisons, if non-nil, accumulates key comparison counts.
	Comparisons *int64
	// Grouped, if non-nil, accumulates the rows in-memory sorts placed by
	// grouping on the leading key column (grouped.go).
	Grouped *int64

	// Arena, if non-nil, is the arena the input rows live in (or at least
	// every row in it is part of the input), and where rows read back from
	// runs are decoded: they come out with its row capacity, as the rows
	// that never spill have, and in the memory of the rows that were
	// written out — the sorter rewinds the arena once run formation has put
	// its whole input on disk (Sort: to the start; SortLoaded: to the
	// caller's mark; SortTuples: never). With a nil Arena the caller's
	// rows are not the sorter's to reuse: each external sort decodes into an
	// arena of its own, whose rows have no spare capacity. The arrays a sort
	// leaves behind it — Sort's buffer, and the slice a spilling Sort merges
	// into — are carved from Arena's header slabs, which live until it is
	// recycled, and allocated when it is nil.
	Arena *storage.TupleArena

	// tree is the tournament the external phase under way is played on,
	// borrowed for the phase (startTree, endTree): nil between phases.
	tree *loserTree
}

// Stats reports what one Sort did.
type Stats struct {
	Tuples      int
	InitialRuns int   // 0 when fully in-memory
	MergePasses int   // intermediate passes that re-materialized runs
	InMemory    bool  // true when no spill occurred
	Comparisons int64 // key comparisons performed by this sort
	// Grouped counts the rows an in-memory sort placed by grouping on the
	// leading key column rather than merging them; counted when
	// Sorter.Grouped is set.
	Grouped int64
}

// compare is the counted key comparison every phase of the sort goes
// through.
func (s *Sorter) compare(a, b storage.Tuple) int {
	s.count()
	return storage.CompareSeq(a, b, s.Key)
}

// count counts one key comparison.
func (s *Sorter) count() {
	if s.Comparisons != nil {
		*s.Comparisons++
	}
}

// SortTuples sorts a materialized slice honoring the memory budget: if the
// slice fits in MemoryBytes it is sorted in place, otherwise it is spilled
// and the runs are merged back into it — dead once they hold every tuple.
// Either way the result is the input slice, sorted, and the sort
// statistics. It never rewinds the arena: the tuples may sit anywhere in
// it, with live rows after them.
func (s *Sorter) SortTuples(tuples []storage.Tuple) ([]storage.Tuple, Stats, error) {
	return s.sortTuples(tuples, nil)
}

// SortLoaded is SortTuples for tuples the caller loaded into s.Arena after
// taking mark, with nothing else carved since: when the sort spills, the
// arena is released back to mark once the runs hold every tuple, and the
// merged rows are decoded over the loaded ones.
func (s *Sorter) SortLoaded(tuples []storage.Tuple, mark storage.ArenaMark) ([]storage.Tuple, Stats, error) {
	return s.sortTuples(tuples, &mark)
}

func (s *Sorter) sortTuples(tuples []storage.Tuple, rewind *storage.ArenaMark) ([]storage.Tuple, Stats, error) {
	fit := len(tuples)
	if s.MemoryBytes > 0 {
		bytes := 0
		for i, t := range tuples {
			if bytes+t.Size() > s.MemoryBytes && i > 0 {
				fit = i
				break
			}
			bytes += t.Size()
		}
	}
	if fit == len(tuples) {
		return s.finish(tuples, nil, nil)
	}
	return s.finish(tuples[:fit], SliceInput(tuples[fit:]), rewind)
}

// Sort consumes the input and returns the fully sorted tuples. sizeHint may
// be 0 when unknown; when it is the input's length the in-memory buffer is
// carved once. A sort that spills resets s.Arena's rows once its input is on
// disk: every row in the arena must be part of the input. The engine sorts
// loaded slices (SortTuples, SortLoaded); Sort stays for the frozen
// benchmark harness, which times it as the sort layer.
func (s *Sorter) Sort(in Input, sizeHint int) ([]storage.Tuple, Stats, error) {
	// Buffer input until the memory budget is exceeded.
	var (
		buf      []storage.Tuple
		bufBytes int
	)
	if sizeHint > 0 {
		if s.MemoryBytes > 0 {
			// A tuple's Size is at least its 24-byte header, so no more
			// than this many are buffered before the sort spills.
			sizeHint = min(sizeHint, s.MemoryBytes/24+1)
		}
		buf = s.headers(sizeHint)
	}
	for {
		t, ok := in()
		if !ok {
			return s.finish(buf, nil, nil)
		}
		if s.MemoryBytes > 0 && bufBytes+t.Size() > s.MemoryBytes && len(buf) > 0 {
			pending := t
			return s.finish(buf, func() (storage.Tuple, bool) {
				if pending != nil {
					t := pending
					pending = nil
					return t, true
				}
				return in()
			}, &storage.ArenaMark{})
		}
		buf = append(buf, t)
		bufBytes += t.Size()
	}
}

// finish sorts buf — the longest input prefix that fits the budget — and,
// when rest is non-nil (the input overflowed; rest yields what follows
// buf, at least one tuple), forms runs over both and merges them. rewind,
// when non-nil, is the mark s.Arena is released to between the two: the
// input is dead from there on.
func (s *Sorter) finish(buf []storage.Tuple, rest Input, rewind *storage.ArenaMark) (out []storage.Tuple, st Stats, err error) {
	start, grouped := int64(0), int64(0)
	if s.Comparisons != nil {
		start = *s.Comparisons
	}
	if s.Grouped != nil {
		grouped = *s.Grouped
	}
	defer func() {
		if s.Comparisons != nil {
			st.Comparisons = *s.Comparisons - start
		}
		if s.Grouped != nil {
			st.Grouped = *s.Grouped - grouped
		}
	}()

	st.Tuples = len(buf)
	if rest == nil {
		s.sortInMemory(buf)
		st.InMemory = true
		return buf, st, nil
	}
	if s.Store == nil {
		return nil, st, fmt.Errorf("xsort: input exceeds memory budget and no spill store configured")
	}

	// Phase 1: run formation over (buffered ∪ rest of input).
	counted := func() (storage.Tuple, bool) {
		t, ok := rest()
		if ok {
			st.Tuples++
		}
		return t, ok
	}
	runs, err := s.formRuns(buf, counted)
	if err != nil {
		releaseRuns(runs)
		return nil, st, err
	}
	st.InitialRuns = len(runs)
	arena := s.Arena
	if arena == nil {
		arena = storage.NewTupleArena(0)
	} else if rewind != nil {
		arena.Release(*rewind)
	}

	// Phase 2: merge down to one logical stream. Intermediate passes
	// re-materialize; the final merge streams directly into the result.
	fanIn := s.mergeOrder()
	for len(runs) > fanIn {
		var next []*pagestore.File
		for lo := 0; lo < len(runs); lo += fanIn {
			hi := lo + fanIn
			if hi > len(runs) {
				hi = len(runs)
			}
			merged, err := s.mergeToRun(runs[lo:hi], arena)
			if err != nil {
				releaseRuns(runs[lo:])
				releaseRuns(next)
				return nil, st, err
			}
			next = append(next, merged)
		}
		runs = next
		st.MergePasses++
	}
	out, err = s.mergeToSlice(runs, buf[:0], st.Tuples, arena)
	if err != nil {
		releaseRuns(runs)
		return nil, st, err
	}
	return out, st, nil
}

// headers returns an empty tuple slice of capacity n: carved from s.Arena's
// header slabs, or allocated without one.
func (s *Sorter) headers(n int) []storage.Tuple {
	if s.Arena != nil {
		return s.Arena.Headers(n)
	}
	return make([]storage.Tuple, 0, n)
}

// mergeOrder returns F, the number of runs merged simultaneously: one input
// page per run plus one output page must fit in the budget.
func (s *Sorter) mergeOrder() int {
	bs := s.Store.BlockSize()
	f := s.MemoryBytes/bs - 1
	if f < 2 {
		f = 2
	}
	return f
}

// releaseRuns releases the runs' files, once: a released file goes back to
// its store for the next Create.
func releaseRuns(runs []*pagestore.File) {
	for i, f := range runs {
		if f != nil {
			f.Release()
			runs[i] = nil
		}
	}
}
