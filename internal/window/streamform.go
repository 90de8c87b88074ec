package window

import (
	"repro/internal/storage"
	"repro/internal/stream"
)

// Evaluate is the stream form of EvaluateSlice, kept only for the frozen
// benchmark harness (benchmark/ladder.go); the engine never calls it. It
// collects in, evaluates spec over the rows and returns them, each extended
// with the derived column, under their original segment boundaries.
func Evaluate(in stream.Stream, spec Spec) (stream.Stream, error) {
	rows, err := stream.Collect(in)
	if err != nil {
		return nil, err
	}
	tuples := make([]storage.Tuple, len(rows))
	for i, r := range rows {
		tuples[i] = r.Tuple
	}
	col := make([]storage.Value, len(rows))
	if err := new(Evaluator).EvaluateSlice(tuples, spec, col); err != nil {
		return nil, err
	}
	for i, v := range col {
		rows[i].Tuple = rows[i].Tuple.Extend(v)
	}
	return stream.FromRows(rows), nil
}
