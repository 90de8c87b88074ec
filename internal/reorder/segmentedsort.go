package reorder

import (
	"fmt"

	"repro/internal/attrs"
	"repro/internal/storage"
)

// SSOptions configures one Segmented Sort.
type SSOptions struct {
	// Alpha is the prefix of the input's per-segment ordering shared with
	// the target key: consecutive tuples with equal Alpha values form one
	// sort unit. Empty Alpha (legal only when the input is segmented, i.e.
	// X ≠ ∅) makes the whole segment one unit.
	Alpha attrs.Seq
	// Beta is the ordering each unit is sorted on (the target key minus the
	// α prefix, with grouped-constant attributes dropped).
	Beta attrs.Seq
	// SegmentBy optionally detects segment boundaries by value change on
	// these attributes, in addition to the input's segment starts. This
	// realizes the grouped relation R^g_{X,Y}, whose segment structure is
	// implicit in the X values (e.g. the paper's web_sales_g input, grouped
	// on ws_quantity with no physical markers).
	SegmentBy []attrs.ID
}

// SSStats reports a SegmentedSort execution.
type SSStats struct {
	Segments      int
	Units         int
	ExternalUnits int // units whose sort spilled
	InputTuples   int
	MaxUnitTuples int
}

// Segmented reorders rows where they lie per Section 3.3: each α-group
// within each segment is sorted independently on β, in place. starts lists
// the input's segment starts; Segmented appends the output's to out and
// returns them: every input start, plus each row whose SegmentBy values
// differ from the row before it. So the output keeps the input's X property
// with the new per-segment ordering.
//
// It sorts one α-group at a time (spilling through the configured sorter if
// a single group exceeds the budget), so its memory footprint is one unit,
// not the relation — the source of SS's dominance in Fig. 4. It never
// rewinds cfg.Arena: the rows of the units after the one being sorted are
// live there, so a unit that sorts externally is decoded past everything
// carved so far.
func Segmented(rows []storage.Tuple, starts, out []int, opt SSOptions, cfg Config) ([]int, SSStats, error) {
	st := SSStats{InputTuples: len(rows)}
	if cfg.Store == nil && cfg.MemoryBytes > 0 {
		return out, st, fmt.Errorf("reorder: SegmentedSort with a memory budget requires a spill store")
	}
	sorter := cfg.sorter(opt.Beta)
	segSet := attrs.MakeSet(opt.SegmentBy...)
	// newSeg says whether the unit beginning at lo begins a segment; a unit
	// ends before the first row that begins a segment or leaves its α-group.
	newSeg := true
	for lo := 0; lo < len(rows); {
		hi, nextSeg := lo+1, false
		for ; hi < len(rows); hi++ {
			for len(starts) > 0 && starts[0] < hi {
				starts = starts[1:]
			}
			nextSeg = len(starts) > 0 && starts[0] == hi ||
				!segSet.Empty() && !storage.EqualOn(rows[hi-1], rows[hi], segSet)
			if nextSeg || !storage.EqualOnSeq(rows[lo], rows[hi], opt.Alpha) {
				break
			}
		}
		if newSeg {
			st.Segments++
			if lo > 0 {
				out = append(out, lo)
			}
		}
		_, sst, err := sorter.SortTuples(rows[lo:hi:hi])
		if err != nil {
			return out, st, err
		}
		if !sst.InMemory {
			st.ExternalUnits++
		}
		st.Units++
		st.MaxUnitTuples = max(st.MaxUnitTuples, hi-lo)
		lo, newSeg = hi, nextSeg
	}
	return out, st, nil
}
