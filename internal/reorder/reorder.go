// Package reorder implements the paper's three tuple-reordering operators
// over a segmented relation held as one row array plus the indices at which
// its segments start (Definition 1). Each permutes the array where it lies
// and appends the starts of its output's segments to a list the caller
// passes in:
//
//   - Full (FS): external sort of the whole array; output is a single
//     totally ordered segment.
//   - Hashed (HS, Section 3.2): hash-partition on WHK ⊆ WPK into
//     buckets of complete WHK-groups, then sort each bucket on →WPK ∘ WOK;
//     buckets become segments in arbitrary order — which Section 3's key
//     observation shows is irrelevant to window-function correctness.
//     When memory fills it flushes the largest resident bucket, and a
//     flushed bucket stays disk-bound.
//   - Segmented (SS, Section 3.3): within each existing segment, detect
//     α-groups (runs of equal α values, α being the shared prefix between
//     the target key and the input ordering) and sort each independently on
//     the β remainder. Falls back to whole-segment sorts when α is empty
//     (applicable only when X ≠ ∅).
//
// A list of starts holds the indices > 0 at which a segment begins,
// ascending: the first row always begins one. All operators honor a unit
// reorder memory budget; spill traffic flows through pagestore for exact
// block-I/O accounting, and key comparisons are counted. Each returns its
// statistics complete.
package reorder

import (
	"repro/internal/attrs"
	"repro/internal/pagestore"
	"repro/internal/storage"
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
	// put its whole input on disk (FS, HS) rewinds the arena first, so they
	// land where the rows written out were. SS sorts one α-group at a time
	// while the rows of the groups after it stay live in the arena, so it
	// never rewinds: a unit that sorts externally is decoded past everything
	// carved so far, and its old copy stays until an operator that puts its
	// whole input on disk comes along. With a nil Arena the input rows are
	// not the operator's to reuse: it decodes into an arena of its own,
	// whose rows have no spare capacity (an extension then costs a copy,
	// never correctness).
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

// FSStats reports a Full Sort execution.
type FSStats struct {
	Sort xsort.Stats
}

// Full sorts rows where they lie into a single segment totally ordered on
// key: the prefix that fits the budget is sorted in memory, and when the
// rest overflows it the arena is rewound once run formation has put every
// row on disk, and the merge decodes over them back into rows.
func Full(rows []storage.Tuple, key attrs.Seq, cfg Config) (FSStats, error) {
	var (
		st  FSStats
		err error
	)
	_, st.Sort, err = cfg.sorter(key).SortLoaded(rows, storage.ArenaMark{})
	return st, err
}
