package xsort

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/attrs"
	"repro/internal/pagestore"
	"repro/internal/spill"
	"repro/internal/storage"
)

// checkTreeClean asserts what holds of a sorter whenever it is not sorting:
// it holds no tree, and no idle tree in the free list — to its arrays'
// capacity, not their length — holds a tuple or a reader, so neither an
// idle sorter nor the free list pins a row or a page.
func checkTreeClean(t *testing.T, s *Sorter) {
	t.Helper()
	if s.tree != nil {
		t.Errorf("an idle sorter holds a %d-leaf tree", len(s.tree.leaves))
	}
	idle := make([]*loserTree, trees.Len())
	for i := range idle {
		idle[i] = trees.Get()
	}
	defer func() {
		for _, tr := range idle {
			trees.Put(tr)
		}
	}()
	for _, tr := range idle {
		if len(tr.leaves) != 0 || len(tr.readers) != 0 {
			t.Errorf("an idle tree has %d leaves and %d readers in use", len(tr.leaves), len(tr.readers))
		}
		for i, l := range tr.leaves[:cap(tr.leaves)] {
			if l.tuple != nil || l.rd != nil {
				t.Fatalf("leaf %d of an idle %d-leaf tree still holds tuple %v, reader %v", i, cap(tr.leaves), l.tuple, l.rd)
			}
		}
		for i, rd := range tr.readers[:cap(tr.readers)] {
			if !reflect.ValueOf(rd).IsZero() {
				t.Fatalf("reader %d of an idle tree is not zero", i)
			}
		}
	}
}

// TestCorruptRunReleasesSpillFiles — a sort whose merge hits a corrupt run
// fails and leaves nothing behind: not the runs, not the readers' handles
// or pages, not the output a merge pass had half written, not a tuple in
// the tree. The input overwrites the second half of the chosen runs — all
// of them, or the first, a middle or the last one formed, so the merge fails
// with runs before it exhausted and runs after it untouched — as it reports
// its end: the damage is there when the merge starts, with one final merge
// and with intermediate passes.
func TestCorruptRunReleasesSpillFiles(t *testing.T) {
	for name, mem := range map[string]int{"final merge": 8192, "merge passes": 1024} {
		t.Run(name, func(t *testing.T) {
			for _, which := range []string{"every run", "first run", "middle run", "last run"} {
				t.Run(which, func(t *testing.T) {
					dir := t.TempDir()
					rows := randRows(rand.New(rand.NewSource(3)), 4000, 50)
					s := &Sorter{Key: attrs.AscSeq(0, 1), MemoryBytes: mem, Store: pagestore.NewFileBacked(dir, 128, nil)}
					_, idle := pagestore.PoolCounters()
					// The run files in the order run formation created them,
					// looked for every eighth tuple: a run of replacement
					// selection takes at least the 14 tuples the smaller budget
					// buffers, so no two files appear between two looks.
					var files []string
					calls := 0
					watch := func(now bool) {
						if calls++; calls%8 != 0 && !now {
							return
						}
						found, _ := filepath.Glob(filepath.Join(dir, "*"))
						for _, f := range found {
							if !slices.Contains(files, f) {
								files = append(files, f)
							}
						}
					}
					next := SliceInput(rows)
					_, st, err := s.Sort(func() (storage.Tuple, bool) {
						row, ok := next()
						watch(!ok)
						if ok {
							return row, true
						}
						if len(files) < 3 {
							t.Fatalf("%d runs when the input ends: first, middle and last are not three cases", len(files))
						}
						chosen := files
						switch which {
						case "first run":
							chosen = files[:1]
						case "middle run":
							chosen = files[len(files)/2:][:1]
						case "last run":
							chosen = files[len(files)-1:]
						}
						for _, f := range chosen {
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
						}
						return nil, false
					}, len(rows))
					if !errors.Is(err, storage.ErrCorrupt) {
						t.Fatalf("err = %v after corrupting the %s of %d, want ErrCorrupt", err, which, st.InitialRuns)
					}
					if (name == "merge passes") != (st.InitialRuns > s.mergeOrder()) {
						t.Fatalf("%d runs at fan-in %d do not make this the %s case", st.InitialRuns, s.mergeOrder(), name)
					}
					if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
						t.Fatalf("%d spill files left behind", len(left))
					}
					if _, held := pagestore.PoolCounters(); held != idle {
						t.Fatalf("%d blocks not handed back", held-idle)
					}
					checkTreeClean(t, s)
				})
			}
		})
	}
}

// TestFailedMergeReturnsItsPages is the memory-backend side: a merge to a
// run and a merge to a slice over four good runs and one — the first, the
// middle or the last — that turns to garbage after its second tuple. That
// tuple's key sits above everything the two short runs hold and below the
// end of the two long ones, so when the garbage comes up two leaves are
// already retired and two readers are still open. Every block comes back:
// reader buffers, the half-written output, and (released by the caller, as
// finish does) the runs.
func TestFailedMergeReturnsItsPages(t *testing.T) {
	store := pagestore.NewMem(128, nil)
	s := &Sorter{Key: attrs.AscSeq(0, 1), MemoryBytes: 1024, Store: store}
	writeRun := func(keys []int64, garbage bool) *pagestore.File {
		w, err := spill.NewWriter(store)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if err := w.Write(storage.Tuple{storage.Int(k), storage.Int(0), storage.Int(-1)}); err != nil {
				t.Fatal(err)
			}
		}
		if garbage {
			if _, err := w.File().Write(bytes.Repeat([]byte{0xFF}, 300)); err != nil {
				t.Fatal(err)
			}
		}
		f, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	long := make([]int64, 200)
	for i := range long {
		long[i] = int64(i / 4)
	}
	makeRuns := func(corruptAt int) []*pagestore.File {
		runs := []*pagestore.File{writeRun([]int64{0, 1, 2}, false), writeRun(long, false), writeRun(long, false), writeRun([]int64{3, 3}, false)}
		return slices.Insert(runs, corruptAt, writeRun([]int64{-1, 25}, true))
	}
	_, idle := pagestore.PoolCounters()
	for _, corruptAt := range []int{0, 2, 4} {
		for name, merge := range map[string]func([]*pagestore.File) error{
			"to run": func(runs []*pagestore.File) error {
				_, err := s.mergeToRun(runs, storage.NewTupleArena(0))
				return err
			},
			"to slice": func(runs []*pagestore.File) error {
				_, err := s.mergeToSlice(runs, nil, 0, storage.NewTupleArena(0))
				return err
			},
			// The same merge a step at a time, to see the tree at the failure.
			"stepwise": func(runs []*pagestore.File) error {
				defer s.endTree()
				if err := s.startMerge(runs, storage.NewTupleArena(0)); err != nil {
					return err
				}
				for {
					_, ok, err := s.mergeNext()
					if err == nil && ok {
						continue
					}
					gone, open := 0, 0
					for i, l := range s.tree.leaves {
						switch {
						case l.run == retired && l.rd == nil && l.tuple == nil:
							gone++
						case l.run == 0 && l.rd != nil && l.tuple != nil:
							open++
						default:
							t.Fatalf("leaf %d is neither live nor retired: run %d, reader %v, tuple %v", i, l.run, l.rd, l.tuple)
						}
					}
					if gone != 2 || open != 3 {
						t.Fatalf("at the failure %d leaves are retired and %d open, want 2 and 3", gone, open)
					}
					return err
				}
			},
		} {
			runs := makeRuns(corruptAt)
			if err := merge(runs); !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("merge %s, run %d corrupt: err = %v, want ErrCorrupt", name, corruptAt, err)
			}
			checkTreeClean(t, s)
			releaseRuns(runs)
			if _, held := pagestore.PoolCounters(); held != idle {
				t.Fatalf("merge %s, run %d corrupt: %d blocks not handed back", name, corruptAt, held-idle)
			}
		}
	}
}

// TestTreeHoldsNoTuples — the tree goes back to the free list for the next
// sort, so it is emptied whichever way the sort ends: sorts of growing and
// shrinking leaf counts, and an input that panics while runs are being
// formed, all leave every idle leaf and reader zero — and the sorter fit
// for the next sort.
func TestTreeHoldsNoTuples(t *testing.T) {
	key := attrs.AscSeq(0, 1)
	s := &Sorter{Key: key, Store: pagestore.NewMem(256, nil)}
	for _, tc := range []struct{ n, budgetRows int }{{3000, 40}, {500, 3}, {2000, 100}, {100, 1}, {50, 50}} {
		rows := randRows(rand.New(rand.NewSource(int64(tc.n))), tc.n, 12)
		s.MemoryBytes = tc.budgetRows * rows[0].Size()
		got, st, err := s.SortTuples(slices.Clone(rows))
		if err != nil || !storage.SortedOn(got, key) || !multisetEqual(got, rows) {
			t.Fatalf("%+v: wrong result (%v, %+v)", tc, err, st)
		}
		checkTreeClean(t, s)
	}

	rows := randRows(rand.New(rand.NewSource(8)), 1000, 12)
	s.MemoryBytes = 40 * rows[0].Size()
	for _, after := range []int{41, 42, 500, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("input did not panic at tuple %d", after)
				}
			}()
			next, calls := SliceInput(rows), 0
			s.Sort(func() (storage.Tuple, bool) {
				if calls++; calls > after {
					panic("input failed")
				}
				return next()
			}, len(rows))
		}()
		checkTreeClean(t, s)
	}
	got, _, err := s.Sort(SliceInput(rows), len(rows))
	if err != nil || !storage.SortedOn(got, key) || !multisetEqual(got, rows) {
		t.Fatalf("sort after the panics is wrong (%v)", err)
	}
}
