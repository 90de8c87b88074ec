package reorder

import (
	"fmt"

	"repro/internal/attrs"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/xsort"
)

// SSOptions configures one Segmented Sort.
type SSOptions struct {
	// Alpha is the prefix of the input's per-segment ordering shared with
	// the target key: consecutive tuples with equal Alpha values form one
	// sort unit. Empty Alpha (legal only when the stream is segmented, i.e.
	// X ≠ ∅) makes the whole segment one unit.
	Alpha attrs.Seq
	// Beta is the ordering each unit is sorted on (the target key minus the
	// α prefix, with grouped-constant attributes dropped).
	Beta attrs.Seq
	// SegmentBy optionally detects segment boundaries by value change on
	// these attributes, in addition to explicit stream boundary flags. This
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

// SegmentedSort reorders a segmented stream per Section 3.3: each α-group
// within each segment is sorted independently on β. Segment boundaries are
// preserved, so the output keeps the input's X property with the new
// per-segment ordering.
//
// The operator streams: it buffers exactly one α-group at a time (spilling
// through the configured sorter if a single group exceeds the budget), so
// its memory footprint is one unit, not the relation — the source of SS's
// dominance in Fig. 4. Because it emits while it reads, it never rewinds
// cfg.Arena: the rows of the units still to come sit there unread, so a
// unit that sorts externally is decoded past everything carved so far and
// its old copy stays until an operator that drains its input comes along.
func SegmentedSort(in stream.Stream, opt SSOptions, cfg Config) (stream.Stream, *SSStats, error) {
	if cfg.Store == nil && cfg.MemoryBytes > 0 {
		return nil, nil, fmt.Errorf("reorder: SegmentedSort with a memory budget requires a spill store")
	}
	st := &SSStats{}
	return &ssStream{
		in:     in,
		opt:    opt,
		sorter: cfg.sorter(opt.Beta),
		segSet: attrs.MakeSet(opt.SegmentBy...),
		stats:  st,
		work:   works.Get(),
	}, st, nil
}

type ssStream struct {
	in     stream.Stream
	opt    SSOptions
	sorter *xsort.Sorter // one for every unit
	segSet attrs.Set
	stats  *SSStats

	// work.tuples buffers the α-group being read. A unit is sorted in
	// place, or merged back into it when its sort spills, so current
	// aliases it until the unit is emitted — which is when fillUnit next
	// overwrites it. work goes back, and is nil, once the stream has ended.
	work     *work
	current  []storage.Tuple // sorted unit being emitted
	pos      int
	boundary bool // the unit being emitted starts a new segment

	pending    storage.Tuple // first tuple of the next unit
	pendingSeg bool
	prev       storage.Tuple // last input tuple consumed
	primed     bool
	done       bool
	err        error
}

// newSegment reports whether row r begins a new segment relative to prev.
func (s *ssStream) newSegment(prev storage.Tuple, r stream.Row) bool {
	if r.Boundary {
		return true
	}
	if prev == nil || s.segSet.Empty() {
		return false
	}
	return !storage.EqualOn(prev, r.Tuple, s.segSet)
}

func (s *ssStream) Next() (stream.Row, bool) {
	for {
		if s.pos < len(s.current) {
			r := stream.Row{Tuple: s.current[s.pos], Boundary: s.pos == 0 && s.boundary}
			s.pos++
			return r, true
		}
		if s.done {
			s.end()
			return stream.Row{}, false
		}
		if err := s.fillUnit(); err != nil {
			s.err = err
			s.end()
			return stream.Row{}, false
		}
		if len(s.current) == 0 {
			s.end()
			return stream.Row{}, false
		}
	}
}

// closeInput closes the input the first time it is called; later calls
// return nil.
func (s *ssStream) closeInput() error {
	if s.in == nil {
		return nil
	}
	err := s.in.Close()
	s.in = nil
	return err
}

// end marks the stream done, gives the work back and closes the input —
// its spill files, and whatever else it holds, go with it even when the
// stream is abandoned before its input ran out. Ending twice is harmless.
func (s *ssStream) end() {
	s.done = true
	s.current, s.pos, s.pending, s.prev = nil, 0, nil, nil
	if s.work != nil {
		s.work.giveBack()
		s.work = nil
	}
	if err := s.closeInput(); err != nil && s.err == nil {
		s.err = err
	}
}

// fillUnit buffers the next α-group and sorts it on β.
func (s *ssStream) fillUnit() error {
	if !s.primed {
		r, ok := s.in.Next()
		if !ok {
			s.done = true
			s.current = nil
			return s.closeInput()
		}
		s.pending = r.Tuple
		s.pendingSeg = true // first row of the stream starts a segment
		s.prev = r.Tuple
		s.primed = true
		s.stats.InputTuples++
	}
	if s.pending == nil {
		s.done = true
		s.current = nil
		return nil
	}
	head := s.pending
	headSeg := s.pendingSeg
	unit := append(s.work.tuples[:0], head)
	s.pending = nil
	for {
		r, ok := s.in.Next()
		if !ok {
			if err := s.closeInput(); err != nil {
				return err
			}
			break
		}
		s.stats.InputTuples++
		segBreak := s.newSegment(s.prev, r)
		s.prev = r.Tuple
		if segBreak || !storage.EqualOnSeq(head, r.Tuple, s.opt.Alpha) {
			s.pending = r.Tuple
			s.pendingSeg = segBreak
			break
		}
		unit = append(unit, r.Tuple)
	}
	s.work.tuples = unit
	sorted, sstats, err := s.sorter.SortTuples(unit)
	if err != nil {
		return err
	}
	if !sstats.InMemory {
		s.stats.ExternalUnits++
	}
	s.stats.Units++
	if len(unit) > s.stats.MaxUnitTuples {
		s.stats.MaxUnitTuples = len(unit)
	}
	if headSeg {
		s.stats.Segments++
	}
	s.current = sorted
	s.pos = 0
	s.boundary = headSeg
	return nil
}

// Close ends the stream wherever its reader stopped: its input is closed
// too.
func (s *ssStream) Close() error {
	s.end()
	return s.err
}
