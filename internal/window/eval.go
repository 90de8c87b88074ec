package window

import (
	"fmt"

	"repro/internal/storage"
	"repro/internal/stream"
)

// Evaluate computes spec over a stream that matches it (Definition 2) and
// returns a stream of the same rows extended with the derived column. The
// evaluation is the second logical step of Section 1: window partitions are
// detected by WPK value change during a single sequential scan (tuples of
// one WPK-group are consecutive in a matched stream, and — because segments
// are disjoint on X ⊆ WPK — a group never spans segments), each partition is
// buffered, the function is invoked per row, and rows flow on with their
// original segment boundaries.
//
// Evaluate does not verify the match; feeding a non-matching stream yields
// wrong results exactly as it would in a database executor. The planner
// guarantees matching (core.Plan.Validate), and tests cross-check against
// the O(n²) reference evaluator.
func Evaluate(in stream.Stream, spec Spec) (stream.Stream, error) {
	if spec.Kind.needsArg() && spec.Arg < 0 {
		return nil, fmt.Errorf("window: %s requires an argument column", spec.Kind)
	}
	return &evalStream{in: in, ev: evaluator{spec: spec}}, nil
}

// evalStream buffers one partition at a time.
type evalStream struct {
	in stream.Stream
	ev evaluator

	part       []stream.Row    // current partition with boundaries; reused
	tuples     []storage.Tuple // part's tuples, for the evaluator; reused
	derived    []storage.Value // part's derived values; reused
	pos        int
	pending    stream.Row
	hasPending bool
	primed     bool
	done       bool
	err        error
}

func (e *evalStream) Next() (stream.Row, bool) {
	for {
		if e.pos < len(e.part) {
			r := e.part[e.pos]
			// Extend, not Append: executor rows are arena-allocated with
			// spare capacity reserved per chain step, so the derived column
			// lands in place; tuples without spare capacity still copy.
			out := stream.Row{Tuple: r.Tuple.Extend(e.derived[e.pos]), Boundary: r.Boundary}
			e.pos++
			return out, true
		}
		if e.done {
			return stream.Row{}, false
		}
		if err := e.fillPartition(); err != nil {
			e.err = err
			return stream.Row{}, false
		}
		if len(e.part) == 0 {
			e.done = true
			return stream.Row{}, false
		}
	}
}

// fillPartition buffers the next WPK-group and computes the function.
func (e *evalStream) fillPartition() error {
	if !e.primed {
		r, ok := e.in.Next()
		if !ok {
			e.part = nil
			e.done = true
			return e.in.Close()
		}
		e.pending, e.hasPending = r, true
		e.primed = true
	}
	if !e.hasPending {
		e.part = nil
		e.done = true
		return nil
	}
	head := e.pending
	e.hasPending = false
	// Next emitted every row of the last partition before asking for this
	// one, so its buffers are free.
	part := append(e.part[:0], head)
	for {
		r, ok := e.in.Next()
		if !ok {
			if err := e.in.Close(); err != nil {
				return err
			}
			break
		}
		if !storage.EqualOn(head.Tuple, r.Tuple, e.ev.spec.PK) {
			e.pending, e.hasPending = r, true
			break
		}
		part = append(part, r)
	}
	tuples := e.tuples[:0]
	for _, r := range part {
		tuples = append(tuples, r.Tuple)
	}
	e.tuples = tuples
	e.derived = sized(e.derived, len(tuples))
	if err := e.ev.partition(tuples, e.derived); err != nil {
		return err
	}
	e.part = part
	e.pos = 0
	return nil
}

func (e *evalStream) Close() error { return e.err }

// EvaluateSlice is the slice form of Evaluate: it evaluates spec over rows
// (which must already be arranged in matching order) and returns the
// derived column as a vector indexed like rows. It never touches the rows
// — the executor runs it over tuples it shares with other statements —
// and allocates the vector plus one evaluator's buffers, whatever the
// number of partitions.
func EvaluateSlice(rows []storage.Tuple, spec Spec) ([]storage.Value, error) {
	if spec.Kind.needsArg() && spec.Arg < 0 {
		return nil, fmt.Errorf("window: %s requires an argument column", spec.Kind)
	}
	out := make([]storage.Value, len(rows))
	ev := evaluator{spec: spec}
	start := 0
	for start < len(rows) {
		end := start + 1
		for end < len(rows) && storage.EqualOn(rows[start], rows[end], spec.PK) {
			end++
		}
		if err := ev.partition(rows[start:end], out[start:end]); err != nil {
			return nil, err
		}
		start = end
	}
	return out, nil
}
