// Package stream defines the runtime carrier of segmented relations
// (Definition 1 of the paper): a pull-based tuple stream in which every row
// is tagged with whether it begins a new segment. Reordering operators emit
// segmented streams; the window evaluator and downstream reorders consume
// them. The logical properties of a stream (its X set and Y ordering) are
// tracked statically by the planner; the Boundary flags are the physical
// realization of the segment structure.
package stream

import (
	"repro/internal/storage"
)

// Row is one stream element.
type Row struct {
	Tuple storage.Tuple
	// Boundary is true when this tuple starts a new segment. The first row
	// of a stream always has Boundary == true.
	Boundary bool
}

// Stream is a pull-based segmented tuple stream. Next returns the next row
// and true, or a zero Row and false at end of stream. Errors encountered by
// operators are surfaced via Close following the "drain then close" pattern;
// operators that can fail mid-stream instead return an error eagerly from
// their constructors after materializing (all reorders are blocking).
type Stream interface {
	Next() (Row, bool)
	Close() error
}

// sliceStream streams a materialized row slice.
type sliceStream struct {
	rows []Row
	pos  int
}

// FromRows wraps pre-tagged rows.
func FromRows(rows []Row) Stream { return &sliceStream{rows: rows} }

// FromTuples wraps tuples as a single segment.
func FromTuples(tuples []storage.Tuple) Stream {
	rows := make([]Row, len(tuples))
	for i, t := range tuples {
		rows[i] = Row{Tuple: t, Boundary: i == 0}
	}
	return FromRows(rows)
}

// FromTable streams a table as a single segment.
func FromTable(t *storage.Table) Stream { return FromTuples(t.Rows) }

// FromSegments wraps a list of segments, tagging each segment head.
func FromSegments(segments [][]storage.Tuple) Stream {
	var rows []Row
	for _, seg := range segments {
		for i, t := range seg {
			rows = append(rows, Row{Tuple: t, Boundary: i == 0})
		}
	}
	return FromRows(rows)
}

func (s *sliceStream) Next() (Row, bool) {
	if s.pos >= len(s.rows) {
		return Row{}, false
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true
}

func (s *sliceStream) Close() error { return nil }

// Collect drains a stream into a tagged row slice and closes it.
func Collect(s Stream) ([]Row, error) { return CollectN(s, 0) }

// CollectN is Collect for a caller that knows how many rows to expect: the
// result is allocated once at that capacity (and still grows past it).
func CollectN(s Stream, sizeHint int) ([]Row, error) {
	var rows []Row
	if sizeHint > 0 {
		rows = make([]Row, 0, sizeHint)
	}
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		rows = append(rows, r)
	}
	return rows, s.Close()
}

// CollectTuples drains a stream into bare tuples, discarding boundaries.
func CollectTuples(s Stream) ([]storage.Tuple, error) {
	rows, err := Collect(s)
	if err != nil {
		return nil, err
	}
	out := make([]storage.Tuple, len(rows))
	for i, r := range rows {
		out[i] = r.Tuple
	}
	return out, nil
}

// Segments drains a stream into per-segment tuple slices.
func Segments(s Stream) ([][]storage.Tuple, error) {
	rows, err := Collect(s)
	if err != nil {
		return nil, err
	}
	var segs [][]storage.Tuple
	for _, r := range rows {
		if r.Boundary || len(segs) == 0 {
			segs = append(segs, nil)
		}
		segs[len(segs)-1] = append(segs[len(segs)-1], r.Tuple)
	}
	return segs, nil
}

// Concat chains streams; each source's segments are preserved.
func Concat(streams ...Stream) Stream { return &concatStream{streams: streams} }

type concatStream struct {
	streams []Stream
	idx     int
	err     error
}

func (c *concatStream) Next() (Row, bool) {
	for c.idx < len(c.streams) {
		r, ok := c.streams[c.idx].Next()
		if ok {
			return r, true
		}
		if err := c.streams[c.idx].Close(); err != nil && c.err == nil {
			c.err = err
		}
		c.idx++
	}
	return Row{}, false
}

func (c *concatStream) Close() error {
	for ; c.idx < len(c.streams); c.idx++ {
		if err := c.streams[c.idx].Close(); err != nil && c.err == nil {
			c.err = err
		}
	}
	return c.err
}
