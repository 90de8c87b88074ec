package reorder

import (
	"repro/internal/attrs"
	"repro/internal/storage"
	"repro/internal/stream"
)

// The operators' stream forms exist only for the frozen benchmark harness
// (benchmark/ladder.go), which reorders tagged rows; the engine never does.

// FullSort is Full over a stream.
func FullSort(in stream.Stream, key attrs.Seq, cfg Config) (stream.Stream, FSStats, error) {
	return over(in, func(rows []storage.Tuple, _ []int) ([]int, FSStats, error) {
		st, err := Full(rows, key, cfg)
		return nil, st, err
	})
}

// HashedSort is Hashed over a stream.
func HashedSort(in stream.Stream, opt HSOptions, cfg Config) (stream.Stream, HSStats, error) {
	return over(in, func(rows []storage.Tuple, _ []int) ([]int, HSStats, error) { return Hashed(rows, nil, opt, cfg) })
}

// SegmentedSort is Segmented over a stream.
func SegmentedSort(in stream.Stream, opt SSOptions, cfg Config) (stream.Stream, *SSStats, error) {
	return over(in, func(rows []storage.Tuple, starts []int) ([]int, *SSStats, error) {
		starts, st, err := Segmented(rows, starts, nil, opt, cfg)
		return starts, &st, err
	})
}

// over runs op over in's rows and the indices > 0 of those that begin a
// segment, and streams the rows as the segments that begin where op says.
func over[S any](in stream.Stream, op func(rows []storage.Tuple, starts []int) ([]int, S, error)) (_ stream.Stream, st S, err error) {
	tagged, err := stream.Collect(in)
	if err != nil {
		return nil, st, err
	}
	rows, starts := make([]storage.Tuple, len(tagged)), []int(nil)
	for i, r := range tagged {
		if rows[i] = r.Tuple; r.Boundary && i > 0 {
			starts = append(starts, i)
		}
	}
	if starts, st, err = op(rows, starts); err != nil {
		return nil, st, err
	}
	for i, t := range rows {
		tagged[i] = stream.Row{Tuple: t, Boundary: i == 0}
	}
	for _, s := range starts {
		tagged[s].Boundary = true
	}
	return stream.FromRows(tagged), st, nil
}
