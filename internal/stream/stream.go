// Package stream carries results between processes and to clients: reused
// columnar batches (Batch), their WCF1 frames and the NDJSON line form. Its
// row stream — a pull-based tuple stream in which every row is tagged with
// whether it begins a new segment (Definition 1) — is what is left of the
// engine's former operator interface: the engine holds a segmented relation
// as a row array plus its segment starts (package reorder), and only the
// frozen benchmark harness still reorders and evaluates tagged rows
// (reorder.FullSort, window.Evaluate).
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
// and true, or a zero Row and false at end of stream. Errors are surfaced
// via Close following the "drain then close" pattern.
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

func (s *sliceStream) Next() (Row, bool) {
	if s.pos >= len(s.rows) {
		return Row{}, false
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true
}

func (s *sliceStream) remaining() int { return len(s.rows) - s.pos }

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

func (s *tupleStream) remaining() int { return len(s.tuples) - s.pos }

func (s *tupleStream) Close() error { return nil }

// Collect drains a stream into a tagged row slice of its own and closes it.
// The slice is allocated once when the stream knows its length.
func Collect(s Stream) ([]Row, error) {
	var rows []Row
	if sized, ok := s.(interface{ remaining() int }); ok && sized.remaining() > 0 {
		rows = make([]Row, 0, sized.remaining())
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
