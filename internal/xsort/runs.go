package xsort

import (
	"repro/internal/spill"
	"repro/internal/storage"
)

// formRunsReplacement forms initial runs with replacement selection: a heap
// of (runID, tuple) keeps emitting the smallest tuple of the current run;
// incoming tuples that sort below the last emitted key are deferred to the
// next run. Expected run length is 2M for random input (the assumption
// behind Eq. 1 of the paper), and already-sorted input yields a single run.
//
// buf holds the tuples that filled the memory budget; next supplies the rest.
func (s *Sorter) formRunsReplacement(buf []storage.Tuple, next Input) ([]*run, error) {
	h := s.newRunHeap(len(buf))
	for _, t := range buf {
		h.items = append(h.items, rsItem{run: 0, tuple: t})
	}
	h.init()

	var (
		runs    []*run
		writer  *spill.Writer
		current = 0
		last    storage.Tuple
		err     error
	)
	fail := func(err error) ([]*run, error) {
		if writer != nil {
			writer.Abort()
		}
		releaseRuns(runs)
		return nil, err
	}
	closeCurrent := func() error {
		if writer == nil {
			return nil
		}
		f, err := writer.Finish()
		if err != nil {
			return err
		}
		runs = append(runs, &run{file: f})
		writer = nil
		return nil
	}
	for len(h.items) > 0 {
		item := h.items[0]
		if item.run != current {
			if err = closeCurrent(); err != nil {
				return fail(err)
			}
			current = item.run
			last = nil
		}
		if writer == nil {
			if writer, err = spill.NewWriter(s.Store); err != nil {
				return fail(err)
			}
		}
		h.pop()
		if err = writer.Write(item.tuple); err != nil {
			return fail(err)
		}
		last = item.tuple
		if t, ok := next(); ok {
			it := rsItem{run: current, tuple: t}
			if s.less(t, last) {
				it.run = current + 1
			}
			h.push(it)
		}
	}
	if err = closeCurrent(); err != nil {
		return fail(err)
	}
	return runs, nil
}

// rsItem is a heap entry: ordering is (run, key) so the current run drains
// before the next run begins.
type rsItem struct {
	run   int
	tuple storage.Tuple
}

// newRunHeap returns the empty replacement-selection heap.
func (s *Sorter) newRunHeap(capacity int) *tupleHeap[rsItem] {
	return &tupleHeap[rsItem]{
		items: make([]rsItem, 0, capacity),
		less: func(a, b rsItem) bool {
			if a.run != b.run {
				return a.run < b.run
			}
			return s.less(a.tuple, b.tuple)
		},
	}
}

// formRunsLoadSort is the ablation alternative: fill memory, quicksort,
// spill, repeat. Runs have length M instead of 2M.
func (s *Sorter) formRunsLoadSort(buf []storage.Tuple, next Input) ([]*run, error) {
	var runs []*run
	spillChunk := func(chunk []storage.Tuple) error {
		s.sortInMemory(chunk)
		w, err := spill.NewWriter(s.Store)
		if err != nil {
			return err
		}
		for _, t := range chunk {
			if err := w.Write(t); err != nil {
				w.Abort()
				return err
			}
		}
		f, err := w.Finish()
		if err != nil {
			w.Abort()
			return err
		}
		runs = append(runs, &run{file: f})
		return nil
	}
	chunk := buf
	bytes := 0
	for _, t := range chunk {
		bytes += t.Size()
	}
	for {
		t, ok := next()
		if !ok {
			break
		}
		if s.MemoryBytes > 0 && bytes+t.Size() > s.MemoryBytes && len(chunk) > 0 {
			if err := spillChunk(chunk); err != nil {
				releaseRuns(runs)
				return nil, err
			}
			chunk = nil
			bytes = 0
		}
		chunk = append(chunk, t)
		bytes += t.Size()
	}
	if len(chunk) > 0 {
		if err := spillChunk(chunk); err != nil {
			releaseRuns(runs)
			return nil, err
		}
	}
	return runs, nil
}

// mergeSource is one leg of a multiway merge.
type mergeSource struct {
	rd    *spill.Reader
	tuple storage.Tuple
}

type mergeHeap = tupleHeap[*mergeSource]

// startMerge opens readers for all runs, decoding into arena, and primes
// the heap. On error every reader it opened is closed again.
func (s *Sorter) startMerge(runs []*run, arena *storage.TupleArena) (*mergeHeap, error) {
	h := &mergeHeap{less: func(a, b *mergeSource) bool { return s.less(a.tuple, b.tuple) }}
	for _, r := range runs {
		rd, err := spill.NewArenaReader(r.file, arena)
		if err != nil {
			closeSources(h)
			return nil, err
		}
		t, ok, err := rd.Next()
		if err != nil {
			rd.Close()
			closeSources(h)
			return nil, err
		}
		if !ok {
			rd.Close()
			continue
		}
		h.items = append(h.items, &mergeSource{rd: rd, tuple: t})
	}
	h.init()
	return h, nil
}

// closeSources closes the readers of the runs a merge has not exhausted.
func closeSources(h *mergeHeap) {
	for _, src := range h.items {
		src.rd.Close()
	}
}

// mergeNext pops the globally smallest tuple and advances its source.
func (s *Sorter) mergeNext(h *mergeHeap) (storage.Tuple, bool, error) {
	if len(h.items) == 0 {
		return nil, false, nil
	}
	src := h.items[0]
	t := src.tuple
	nt, ok, err := src.rd.Next()
	if err != nil {
		return nil, false, err
	}
	if ok {
		src.tuple = nt
		h.fixTop()
	} else {
		src.rd.Close()
		h.pop()
	}
	return t, true, nil
}

// mergeToRun merges runs into a single re-materialized run and releases
// them. The merged tuples pass through arena on their way back out, so
// what they took of it is released again. On error the runs are the
// caller's to release; the readers and the half-written output are gone.
func (s *Sorter) mergeToRun(runs []*run, arena *storage.TupleArena) (*run, error) {
	mark := arena.Mark()
	defer arena.Release(mark)
	h, err := s.startMerge(runs, arena)
	if err != nil {
		return nil, err
	}
	w, err := spill.NewWriter(s.Store)
	if err != nil {
		closeSources(h)
		return nil, err
	}
	abort := func(err error) (*run, error) {
		closeSources(h)
		w.Abort()
		return nil, err
	}
	for {
		t, ok, err := s.mergeNext(h)
		if err != nil {
			return abort(err)
		}
		if !ok {
			break
		}
		if err := w.Write(t); err != nil {
			return abort(err)
		}
	}
	releaseRuns(runs)
	f, err := w.Finish()
	if err != nil {
		return abort(err)
	}
	return &run{file: f}, nil
}

// mergeToSlice merges the final wave of runs straight into memory (this is
// the pipelined final merge: no output re-materialization) and releases
// them. On error the runs are the caller's to release; the readers are
// closed.
func (s *Sorter) mergeToSlice(runs []*run, sizeHint int, arena *storage.TupleArena) ([]storage.Tuple, error) {
	h, err := s.startMerge(runs, arena)
	if err != nil {
		return nil, err
	}
	out := make([]storage.Tuple, 0, sizeHint)
	for {
		t, ok, err := s.mergeNext(h)
		if err != nil {
			closeSources(h)
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, t)
	}
	releaseRuns(runs)
	return out, nil
}
