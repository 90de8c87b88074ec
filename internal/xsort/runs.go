package xsort

import (
	"slices"

	"repro/internal/pagestore"
	"repro/internal/spill"
	"repro/internal/storage"
)

// formRuns forms initial runs with replacement selection over
// the loser tree, one leaf per buffered tuple: the winner goes out to the
// current run and the next input tuple takes its leaf — tagged for the next
// run when it sorts below the key just written, and with its arrival number
// so equal keys leave in input order. Expected run length is 2M for random
// input (the assumption behind Eq. 1 of the paper), and already-sorted
// input yields a single run.
//
// buf holds the tuples that filled the memory budget, at least one; next
// supplies the rest.
func (s *Sorter) formRuns(buf []storage.Tuple, next Input) ([]*pagestore.File, error) {
	leaves := s.startTree(len(buf))
	defer s.endTree()
	for i, t := range buf {
		leaves[i].seq, leaves[i].tuple = i, t
	}
	s.build()

	var (
		runs    []*pagestore.File
		writer  spill.Writer
		current = 0
		seq     = len(buf)
		err     error
	)
	fail := func(err error) ([]*pagestore.File, error) {
		if writer.File() != nil {
			writer.Abort()
		}
		releaseRuns(runs)
		return nil, err
	}
	closeCurrent := func() error {
		if writer.File() == nil {
			return nil
		}
		f, err := writer.Finish()
		if err != nil {
			return err
		}
		runs = append(runs, f)
		writer = spill.Writer{}
		return nil
	}
	for w := s.tree.winner(); w.run != retired; w = s.tree.winner() {
		if w.run != current {
			if err = closeCurrent(); err != nil {
				return fail(err)
			}
			current = w.run
		}
		if writer.File() == nil {
			if writer, err = spill.NewWriter(s.Store); err != nil {
				return fail(err)
			}
		}
		last := w.tuple
		if err = writer.Write(last); err != nil {
			return fail(err)
		}
		if t, ok := next(); ok {
			w.tuple, w.seq = t, seq
			seq++
			if s.compare(t, last) < 0 {
				w.run = current + 1
			}
		} else {
			w.tuple, w.run = nil, retired
		}
		s.replay()
	}
	if err = closeCurrent(); err != nil {
		return fail(err)
	}
	return runs, nil
}

// startMerge opens a reader on every run, decoding into arena, and plays
// the tree over their first tuples: leaf i is runs[i], so equal keys leave
// in run order, and a run with nothing (left) in it is a retired leaf. On
// error the caller's release closes what was opened.
func (s *Sorter) startMerge(runs []*pagestore.File, arena *storage.TupleArena) error {
	leaves := s.startTree(len(runs))
	readers := slices.Grow(s.tree.readers[:0], len(runs))[:len(runs)]
	s.tree.readers = readers
	for i, r := range runs {
		rd := &readers[i]
		if err := rd.Open(r, arena); err != nil {
			return err
		}
		leaves[i].seq, leaves[i].rd = i, rd
		if err := leaves[i].advance(); err != nil {
			return err
		}
	}
	s.build()
	return nil
}

// advance moves a merge leaf to its run's next tuple, or closes the run's
// reader and retires the leaf when there is none.
func (l *leaf) advance() error {
	t, ok, err := l.rd.Next()
	if err != nil {
		return err
	}
	if ok {
		l.tuple = t
		return nil
	}
	l.rd.Close()
	*l = leaf{run: retired, seq: l.seq}
	return nil
}

// mergeNext returns the globally smallest tuple and advances its run.
func (s *Sorter) mergeNext() (storage.Tuple, bool, error) {
	w := s.tree.winner()
	if w.run == retired {
		return nil, false, nil
	}
	t := w.tuple
	if err := w.advance(); err != nil {
		return nil, false, err
	}
	s.replay()
	return t, true, nil
}

// mergeToRun merges runs into a single re-materialized run and releases
// them. The merged tuples pass through arena on their way back out, so
// what they took of it is released again. On error the runs are the
// caller's to release; the readers and the half-written output are gone.
func (s *Sorter) mergeToRun(runs []*pagestore.File, arena *storage.TupleArena) (*pagestore.File, error) {
	mark := arena.Mark()
	defer arena.Release(mark)
	defer s.endTree()
	if err := s.startMerge(runs, arena); err != nil {
		return nil, err
	}
	w, err := spill.NewWriter(s.Store)
	if err != nil {
		return nil, err
	}
	abort := func(err error) (*pagestore.File, error) {
		w.Abort()
		return nil, err
	}
	for {
		t, ok, err := s.mergeNext()
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
	return f, nil
}

// mergeToSlice merges the final wave of runs — n tuples — straight into
// memory (this is the pipelined final merge: no output re-materialization)
// and releases them. The merge fills dead, the buffer run formation emptied,
// when it has the capacity (a sorted slice's input array always has), and
// a slice of s.headers otherwise. On error the runs are the caller's to
// release; the readers are closed.
func (s *Sorter) mergeToSlice(runs []*pagestore.File, dead []storage.Tuple, n int, arena *storage.TupleArena) ([]storage.Tuple, error) {
	defer s.endTree()
	if err := s.startMerge(runs, arena); err != nil {
		return nil, err
	}
	out := dead
	if cap(out) < n {
		out = s.headers(n)
	}
	for {
		t, ok, err := s.mergeNext()
		if err != nil {
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
