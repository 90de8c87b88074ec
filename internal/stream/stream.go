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

// Sized is implemented by streams that know how many rows they have left:
// a consumer that buffers its whole input (a sort, a collect) allocates its
// buffer once at that size instead of growing it.
type Sized interface {
	Remaining() int
}

// Remaining returns the number of rows s has left when it knows, else 0.
func Remaining(s Stream) int {
	if sized, ok := s.(Sized); ok {
		return sized.Remaining()
	}
	return 0
}

// sliceStream streams a materialized row slice.
type sliceStream struct {
	rows []Row
	pos  int
}

// FromRows wraps pre-tagged rows.
func FromRows(rows []Row) Stream { return &sliceStream{rows: rows} }

func (s *sliceStream) Next() (Row, bool) {
	if s.pos >= len(s.rows) {
		return Row{}, false
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true
}

func (s *sliceStream) Remaining() int { return len(s.rows) - s.pos }

func (s *sliceStream) Close() error { return nil }

// tupleStream streams bare tuples as a single segment without building a
// Row per tuple up front.
type tupleStream struct {
	tuples []storage.Tuple
	pos    int
}

// FromTuples wraps tuples as a single segment. The stream reads the slice
// and never writes it.
func FromTuples(tuples []storage.Tuple) Stream { return &tupleStream{tuples: tuples} }

func (s *tupleStream) Next() (Row, bool) {
	if s.pos >= len(s.tuples) {
		return Row{}, false
	}
	r := Row{Tuple: s.tuples[s.pos], Boundary: s.pos == 0}
	s.pos++
	return r, true
}

func (s *tupleStream) Remaining() int { return len(s.tuples) - s.pos }

func (s *tupleStream) Close() error { return nil }

// arrayStream streams a row array its caller owns.
type arrayStream struct {
	tupleStream
	starts []int
}

// FromArray streams rows, the row array of one chain, as the segments that
// begin at starts (ascending indices into rows; the first row begins one
// whether or not it is listed). Unlike FromTuples the array is handed over:
// whoever reads the stream may overwrite a slot it has already read, or
// take the whole array (ArrayTuples) and permute it where it lies.
func FromArray(rows []storage.Tuple, starts []int) Stream {
	return &arrayStream{tupleStream: tupleStream{tuples: rows}, starts: starts}
}

func (s *arrayStream) Next() (Row, bool) {
	r, ok := s.tupleStream.Next()
	if ok && len(s.starts) > 0 && s.starts[0] == s.pos-1 {
		r.Boundary = true
		s.starts = s.starts[1:]
	}
	return r, ok
}

// Collect drains a stream into a tagged row slice and closes it.
func Collect(s Stream) ([]Row, error) {
	var rows []Row
	if n := Remaining(s); n > 0 {
		rows = make([]Row, 0, n)
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
// The result is always a slice of its own, allocated once when the stream
// knows its length (and still grown past it).
func CollectTuples(s Stream) ([]storage.Tuple, error) {
	var out []storage.Tuple
	if n := Remaining(s); n > 0 {
		out = make([]storage.Tuple, 0, n)
	}
	return AppendTuples(out, s)
}

// AppendTuples drains a stream, appending its bare tuples to dst, and
// closes it: CollectTuples for a caller that provides the slice.
func AppendTuples(dst []storage.Tuple, s Stream) ([]storage.Tuple, error) {
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		dst = append(dst, r.Tuple)
	}
	return dst, s.Close()
}

// BackingTuples drains a FromTuples stream without copying: it returns the
// unread part of the slice the stream was built over and leaves the stream
// at its end. ok is false, and s untouched, for any other stream. The
// result aliases that slice, so it is read-only unless the caller owns it.
func BackingTuples(s Stream) (tuples []storage.Tuple, ok bool) {
	ts, ok := s.(*tupleStream)
	if !ok {
		return nil, false
	}
	tuples = ts.tuples[ts.pos:]
	ts.pos = len(ts.tuples)
	return tuples, true
}

// ArrayTuples is BackingTuples for a FromArray stream: the unread part of
// the array, which is the caller's to reorder in place. ok is false, and s
// untouched, for any other stream.
func ArrayTuples(s Stream) (tuples []storage.Tuple, ok bool) {
	as, ok := s.(*arrayStream)
	if !ok {
		return nil, false
	}
	return BackingTuples(&as.tupleStream)
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
