// Package reorder implements the paper's three tuple-reordering operators as
// streaming executors over segmented tuple streams:
//
//   - FullSort (FS): external sort of the whole input; output is a single
//     totally ordered segment.
//   - HashedSort (HS, Section 3.2): hash-partition on WHK ⊆ WPK into
//     buckets of complete WHK-groups, then sort each bucket on →WPK ∘ WOK;
//     buckets are emitted as segments in arbitrary order — which Section 3's
//     key observation shows is irrelevant to window-function correctness.
//     When memory fills it flushes the largest resident bucket, and a
//     flushed bucket stays disk-bound.
//   - SegmentedSort (SS, Section 3.3): within each existing segment, detect
//     α-groups (runs of equal α values, α being the shared prefix between
//     the target key and the input ordering) and sort each independently on
//     the β remainder. Falls back to whole-segment sorts when α is empty
//     (applicable only when X ≠ ∅).
//
// All operators honor a unit reorder memory budget; spill traffic flows
// through pagestore for exact block-I/O accounting, and key comparisons are
// counted.
package reorder

import (
	"repro/internal/attrs"
	"repro/internal/pagestore"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/xsort"
)

// Config carries the resources every reorder operator needs.
type Config struct {
	// MemoryBytes is the unit reorder memory M (Section 6.1). ≤0 disables
	// the budget (everything in memory).
	MemoryBytes int
	// Store receives spill traffic (runs, buckets).
	Store *pagestore.Store
	// Comparisons, if non-nil, accumulates key comparisons.
	Comparisons *int64
	// Grouped, if non-nil, accumulates the rows the operators' in-memory
	// sorts placed by grouping on their leading key column
	// (xsort.Stats.Grouped).
	Grouped *int64
	// Arena, if non-nil, is the arena of the chain the operator runs in:
	// every live row in it belongs to the operator's input. Rows that come
	// back from a run, a bucket or an external unit are decoded into it, so
	// they have its row capacity and window evaluation extends them in
	// place like the rows that stayed in memory — and an operator that has
	// consumed its whole input before it emits (FS, HS) rewinds the arena
	// once what it spilled is on disk, so they land where the rows written
	// out were. SS emits while it reads and never rewinds. FS's buffer,
	// and the slice it merges into when it spills, are carved from the
	// arena's header slabs (xsort.Sorter.Arena). With a nil Arena the
	// input rows are not the operator's to reuse: it decodes into an arena
	// of its own, whose rows have no spare capacity (an extension then
	// costs a copy, never correctness).
	Arena *storage.TupleArena
}

func (c Config) sorter(key attrs.Seq) *xsort.Sorter {
	return &xsort.Sorter{
		Key:         key,
		MemoryBytes: c.MemoryBytes,
		Store:       c.Store,
		Comparisons: c.Comparisons,
		Grouped:     c.Grouped,
		Arena:       c.Arena,
	}
}

// streamInput adapts a stream to a sort input, dropping boundaries.
func streamInput(in stream.Stream) xsort.Input {
	return func() (storage.Tuple, bool) {
		r, ok := in.Next()
		if !ok {
			return nil, false
		}
		return r.Tuple, true
	}
}

// FSStats reports a FullSort execution.
type FSStats struct {
	Sort xsort.Stats
}

// FullSort reorders the input into a single segment totally ordered on key.
// A chain's own row array (stream.FromArray) is sorted where it lies — the
// same prefix-that-fits rule, the same arena rewind and so the same runs as
// the buffering sort, without the buffer; any other input is read into one,
// carved once when the input knows its length (stream.Sized).
func FullSort(in stream.Stream, key attrs.Seq, cfg Config) (stream.Stream, FSStats, error) {
	var (
		st     FSStats
		sorted []storage.Tuple
		err    error
	)
	if rows, ok := stream.ArrayTuples(in); ok {
		sorted, st.Sort, err = cfg.sorter(key).SortLoaded(rows, storage.ArenaMark{})
	} else {
		sorted, st.Sort, err = cfg.sorter(key).Sort(streamInput(in), stream.Remaining(in))
	}
	if err != nil {
		in.Close()
		return nil, st, err
	}
	if cerr := in.Close(); cerr != nil {
		return nil, st, cerr
	}
	return stream.FromTuples(sorted), st, nil
}
