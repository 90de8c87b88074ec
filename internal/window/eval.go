package window

import (
	"fmt"

	"repro/internal/storage"
	"repro/internal/stream"
)

// scan is the one evaluation driver, the second logical step of Section 1:
// a single sequential pass over rows — already arranged in an order that
// matches spec (Definition 2) — that detects window partitions by WPK value
// change (tuples of one WPK-group are consecutive in a matched order, and,
// because segments are disjoint on X ⊆ WPK, a group never spans segments)
// and evaluates spec over each with e's buffers, so a scan allocates for its
// largest partition, not once per partition, and a caller that keeps e
// allocates once for all its scans. With a non-nil col the values of
// rows[start:end] land in col[start:end] and the rows are only read; with a
// nil col they pass through e.scratch and each row is extended with its own.
//
// scan does not verify the match; rows in a non-matching order yield wrong
// results exactly as they would in a database executor. The planner
// guarantees matching (core.Plan.Validate), and tests cross-check against
// the O(n²) reference evaluator.
func (e *Evaluator) scan(rows []storage.Tuple, spec Spec, col []storage.Value) error {
	if spec.Kind.needsArg() && spec.Arg < 0 {
		return fmt.Errorf("window: %s requires an argument column", spec.Kind)
	}
	e.spec = spec
	for start := 0; start < len(rows); {
		end := start + 1
		for end < len(rows) && storage.EqualOn(rows[start], rows[end], spec.PK) {
			end++
		}
		var out []storage.Value
		if col != nil {
			out = col[start:end]
		} else {
			e.scratch = sized(e.scratch, end-start)
			out = e.scratch
		}
		if err := e.partition(rows[start:end], out); err != nil {
			return err
		}
		if col == nil {
			for i, v := range out {
				rows[start+i] = rows[start+i].Extend(v)
			}
		}
		start = end
	}
	return nil
}

// EvaluateSlice evaluates spec over rows into col, the derived column as a
// vector indexed like rows: the caller owns it, so a chain carves its
// columns where it keeps them. It never touches the rows — the executor runs
// it over tuples it shares with other statements.
func (e *Evaluator) EvaluateSlice(rows []storage.Tuple, spec Spec, col []storage.Value) error {
	if len(col) != len(rows) {
		return fmt.Errorf("window: a %d-value column for %d rows", len(col), len(rows))
	}
	return e.scan(rows, spec, col)
}

// ExtendSlice evaluates spec over rows and appends each row's derived value
// to the row itself (Tuple.Extend: in place when the row has a spare slot,
// which the caller must then own; a copy otherwise).
func (e *Evaluator) ExtendSlice(rows []storage.Tuple, spec Spec) error {
	return e.scan(rows, spec, nil)
}

// Evaluate is the stream form: it collects in, evaluates spec with
// ExtendSlice and returns the same rows, each extended with the derived
// column, under their original segment boundaries.
func Evaluate(in stream.Stream, spec Spec) (stream.Stream, error) {
	rows, err := stream.Collect(in)
	if err != nil {
		return nil, err
	}
	tuples := make([]storage.Tuple, len(rows))
	for i, r := range rows {
		tuples[i] = r.Tuple
	}
	if err := new(Evaluator).ExtendSlice(tuples, spec); err != nil {
		return nil, err
	}
	for i, t := range tuples {
		rows[i].Tuple = t
	}
	return stream.FromRows(rows), nil
}
