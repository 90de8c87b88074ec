package window

import (
	"fmt"

	"repro/internal/storage"
)

// EvaluateSlice evaluates spec over rows into col, the derived column as a
// vector indexed like rows: the caller owns it, so a chain carves its
// columns where it keeps them. It never touches the rows — the executor runs
// it over tuples it shares with other statements.
//
// It is the one evaluation driver, the second logical step of Section 1: a
// single sequential pass over rows — already arranged in an order that
// matches spec (Definition 2) — that detects window partitions by WPK value
// change (tuples of one WPK-group are consecutive in a matched order, and,
// because segments are disjoint on X ⊆ WPK, a group never spans segments)
// and evaluates spec over each with e's buffers, so a pass allocates for its
// largest partition, not once per partition, and a caller that keeps e
// allocates once for all its passes. It keeps no reference to spec or rows
// once it returns.
//
// It does not verify the match; rows in a non-matching order yield wrong
// results exactly as they would in a database executor. The planner
// guarantees matching (core.Plan.Validate), and tests cross-check against
// the O(n²) reference evaluator.
func (e *Evaluator) EvaluateSlice(rows []storage.Tuple, spec Spec, col []storage.Value) error {
	if len(col) != len(rows) {
		return fmt.Errorf("window: a %d-value column for %d rows", len(col), len(rows))
	}
	if spec.Kind.needsArg() && spec.Arg < 0 {
		return fmt.Errorf("window: %s requires an argument column", spec.Kind)
	}
	e.spec = spec
	defer func() { e.spec = Spec{} }()
	for start := 0; start < len(rows); {
		end := start + 1
		for end < len(rows) && storage.EqualOn(rows[start], rows[end], spec.PK) {
			end++
		}
		if err := e.partition(rows[start:end], col[start:end]); err != nil {
			return err
		}
		start = end
	}
	return nil
}
