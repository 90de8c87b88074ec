package xsort

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/attrs"
	"repro/internal/pagestore"
	"repro/internal/spill"
	"repro/internal/storage"
)

// TestCorruptRunReleasesSpillFiles — a sort whose merge hits a corrupt run
// fails and leaves nothing behind: not the runs, not the readers' handles,
// not the output a merge pass had half written. The input overwrites the
// second half of every run finished so far as it reports its end, so the
// damage is there when the merge starts — with one final merge, and with
// intermediate passes.
func TestCorruptRunReleasesSpillFiles(t *testing.T) {
	for name, mem := range map[string]int{"final merge": 8192, "merge passes": 1024} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			rows := randRows(rand.New(rand.NewSource(3)), 4000, 50)
			s := &Sorter{Key: attrs.AscSeq(0, 1), MemoryBytes: mem, Store: pagestore.NewFileBacked(dir, 128, nil)}
			corrupted := 0
			next := SliceInput(rows)
			_, st, err := s.Sort(func() (storage.Tuple, bool) {
				row, ok := next()
				if ok {
					return row, true
				}
				files, _ := filepath.Glob(filepath.Join(dir, "*"))
				for _, f := range files {
					data, err := os.ReadFile(f)
					if err != nil {
						t.Fatal(err)
					}
					// The first half stays good: the merge is under way, and
					// a pass has written output, when the garbage comes up.
					copy(data[len(data)/2:], bytes.Repeat([]byte{0xFF}, len(data)))
					if err := os.WriteFile(f, data, 0o600); err != nil {
						t.Fatal(err)
					}
					corrupted++
				}
				return nil, false
			}, len(rows))
			if !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("err = %v after corrupting %d of %d runs, want ErrCorrupt", err, corrupted, st.InitialRuns)
			}
			if (name == "merge passes") != (st.InitialRuns > s.mergeOrder()) {
				t.Fatalf("%d runs at fan-in %d do not make this the %s case", st.InitialRuns, s.mergeOrder(), name)
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
				t.Fatalf("%d spill files left behind", len(left))
			}
		})
	}
}

// TestFailedMergeReturnsItsPages is the memory-backend side: a merge to a
// run and a merge to a slice, each over good runs and one that turns to
// garbage after its first tuple, hand back every block they took — reader
// buffers, the half-written output, and (released by the caller, as finish
// does) the runs.
func TestFailedMergeReturnsItsPages(t *testing.T) {
	store := pagestore.NewMem(128, nil)
	s := &Sorter{Key: attrs.AscSeq(0, 1), MemoryBytes: 1024, Store: store}
	makeRuns := func() []*run {
		runs, err := s.formRunsReplacement(nil, SliceInput(randRows(rand.New(rand.NewSource(4)), 600, 50)))
		if err != nil {
			t.Fatal(err)
		}
		w, err := spill.NewWriter(store)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(storage.Tuple{storage.Int(-1), storage.Int(-1), storage.Int(-1)}); err != nil {
			t.Fatal(err)
		}
		if _, err := w.File().Write(bytes.Repeat([]byte{0xFF}, 300)); err != nil {
			t.Fatal(err)
		}
		f, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return append(runs, &run{file: f})
	}
	_, idle := pagestore.PoolCounters()
	for name, merge := range map[string]func([]*run) error{
		"to run": func(runs []*run) error {
			_, err := s.mergeToRun(runs, storage.NewTupleArena(0))
			return err
		},
		"to slice": func(runs []*run) error {
			_, err := s.mergeToSlice(runs, 0, storage.NewTupleArena(0))
			return err
		},
	} {
		runs := makeRuns()
		if err := merge(runs); !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("merge %s: err = %v, want ErrCorrupt", name, err)
		}
		releaseRuns(runs)
		if _, held := pagestore.PoolCounters(); held != idle {
			t.Fatalf("merge %s: %d blocks not handed back", name, held-idle)
		}
	}
}
