package xsort

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/attrs"
	"repro/internal/pagestore"
	"repro/internal/storage"
)

func randRows(rng *rand.Rand, n, domain int) []storage.Tuple {
	rows := make([]storage.Tuple, n)
	for i := range rows {
		rows[i] = storage.Tuple{
			storage.Int(rng.Int63n(int64(domain))),
			storage.Int(rng.Int63n(int64(domain))),
			storage.Int(int64(i)), // unique tag for permutation checks
		}
	}
	return rows
}

// multisetEqual compares row multisets via the unique tag column.
func multisetEqual(a, b []storage.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[int64]int)
	for _, t := range a {
		seen[t[2].Int64()]++
	}
	for _, t := range b {
		seen[t[2].Int64()]--
	}
	for _, c := range seen {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestSortRegimes(t *testing.T) {
	key := attrs.AscSeq(0, 1)
	for _, tc := range []struct {
		name  string
		mem   int
		rows  int
		block int
	}{
		{"in-memory", 1 << 20, 500, 256},
		{"single-merge", 8192, 2000, 256},
		{"multi-pass", 1024, 5000, 128},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			rows := randRows(rng, tc.rows, 50)
			stats := &pagestore.Stats{}
			s := &Sorter{
				Key:         key,
				MemoryBytes: tc.mem,
				Store:       pagestore.NewMem(tc.block, stats),
			}
			got, st, err := s.SortTuples(append([]storage.Tuple(nil), rows...))
			if err != nil {
				t.Fatal(err)
			}
			if !storage.SortedOn(got, key) {
				t.Fatalf("output not sorted")
			}
			if !multisetEqual(got, rows) {
				t.Fatalf("output is not a permutation of input")
			}
			if st.Tuples != tc.rows {
				t.Errorf("Tuples = %d, want %d", st.Tuples, tc.rows)
			}
			if tc.name == "in-memory" {
				if !st.InMemory || stats.TotalBlocks() != 0 {
					t.Errorf("in-memory sort spilled: %+v, io=%d", st, stats.TotalBlocks())
				}
			} else {
				if st.InMemory || st.InitialRuns == 0 || stats.TotalBlocks() == 0 {
					t.Errorf("external sort did not spill: %+v", st)
				}
			}
			if tc.name == "multi-pass" && st.MergePasses == 0 {
				t.Errorf("expected materialized merge passes, got %+v", st)
			}
			if tc.name == "single-merge" && st.MergePasses != 0 {
				t.Errorf("expected streaming-only merge, got %d passes", st.MergePasses)
			}
		})
	}
}

// TestReplacementSelectionRunLength — random input yields runs of ≈2M;
// sorted input yields a single run (the classic replacement-selection
// properties Eq. 1 builds on).
func TestReplacementSelectionRunLength(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := randRows(rng, 4000, 1_000_000)
	mem := 0
	for _, r := range rows[:200] {
		mem += r.Size()
	}
	s := &Sorter{Key: attrs.AscSeq(0), MemoryBytes: mem, Store: pagestore.NewMem(512, nil)}
	_, st, err := s.SortTuples(append([]storage.Tuple(nil), rows...))
	if err != nil {
		t.Fatal(err)
	}
	// ≈ n/(2·200) = 10 runs; allow generous slack.
	if st.InitialRuns < 6 || st.InitialRuns > 16 {
		t.Errorf("replacement selection runs = %d, want ≈10", st.InitialRuns)
	}

	sorted := append([]storage.Tuple(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return storage.CompareSeq(sorted[i], sorted[j], attrs.AscSeq(0)) < 0
	})
	s2 := &Sorter{Key: attrs.AscSeq(0), MemoryBytes: mem, Store: pagestore.NewMem(512, nil)}
	_, st2, err := s2.SortTuples(sorted)
	if err != nil {
		t.Fatal(err)
	}
	if st2.InitialRuns != 1 {
		t.Errorf("sorted input formed %d runs, want 1", st2.InitialRuns)
	}

}

func TestSortStability(t *testing.T) {
	// Equal keys keep input order (TestExternalSortIsStable is the same
	// promise for sorts that spill).
	rows := []storage.Tuple{
		{storage.Int(1), storage.Int(0), storage.Int(0)},
		{storage.Int(1), storage.Int(0), storage.Int(1)},
		{storage.Int(0), storage.Int(0), storage.Int(2)},
	}
	s := &Sorter{Key: attrs.AscSeq(0)}
	got, _, err := s.SortTuples(rows)
	if err != nil {
		t.Fatal(err)
	}
	if got[1][2].Int64() != 0 || got[2][2].Int64() != 1 {
		t.Errorf("in-memory sort not stable: %v", got)
	}
}

// sortVia runs one sort of rows — which it may reorder — through the named
// entry point of s, a sorter made for this one sort.
func sortVia(s *Sorter, entry string, rows []storage.Tuple) ([]storage.Tuple, Stats, error) {
	switch entry {
	case "Sort":
		return s.Sort(SliceInput(rows), len(rows))
	case "SortTuples":
		return s.SortTuples(rows)
	default: // SortLoaded: the rows are copied into the sorter's arena first
		s.Arena = storage.NewTupleArena(len(rows[0]))
		mark := s.Arena.Mark()
		for i, r := range rows {
			rows[i] = s.Arena.Copy(r)
		}
		return s.SortLoaded(rows, mark)
	}
}

// TestExternalSortIsStable — a sort puts equal keys out in input order
// whether or not the budget made it spill, so one statement does not order
// its tied rows by how much memory it was given. Every entry point in every
// cell, from a key with one value to an all but unique one,
// at budgets from one row up: with 256-byte blocks the fan-in is 2 below 11
// rows, so the long inputs go through many intermediate passes.
func TestExternalSortIsStable(t *testing.T) {
	directions := []attrs.Seq{
		{{Attr: 0}},
		{{Attr: 0, NullsFirst: true}},
		{{Attr: 0, Desc: true}},
		{{Attr: 0, Desc: true, NullsFirst: true}},
	}
	spilled, passes := 0, 0
	for _, domain := range []int64{1, 2, 7, 50, 100_000} {
		for _, n := range []int{2, 3, 50, 777, 5000} {
			rows := shapedRows(int64(n)+domain, n, func(rng *rand.Rand, _, _ int) storage.Value {
				if domain > 1 && rng.Intn(10) == 0 {
					return storage.Null
				}
				return storage.Int(rng.Int63n(domain))
			})
			for _, key := range directions {
				want := slices.Clone(rows)
				sort.SliceStable(want, func(i, j int) bool {
					return storage.CompareSeq(want[i], want[j], key) < 0
				})
				for _, budgetRows := range []int{1, 2, 3, 10, 64} {
					for _, entry := range []string{"Sort", "SortTuples", "SortLoaded"} {
						s := &Sorter{Key: key, MemoryBytes: budgetRows * rows[0].Size(), Store: pagestore.NewMem(256, nil)}
						got, st, err := sortVia(s, entry, slices.Clone(rows))
						name := fmt.Sprintf("domain=%d n=%d key=%v budget=%d rows %s", domain, n, key, budgetRows, entry)
						if err != nil || len(got) != n || st.InMemory != (n <= budgetRows) {
							t.Fatalf("%s: %v, %d rows, %+v", name, err, len(got), st)
						}
						if !st.InMemory {
							spilled++
							passes += st.MergePasses
						}
						for i := range got {
							if got[i][2].Int64() != want[i][2].Int64() {
								t.Fatalf("%s (%d runs, %d passes): row %d is tag %d, sort.SliceStable put %d there", name, st.InitialRuns, st.MergePasses, i, got[i][2].Int64(), want[i][2].Int64())
							}
						}
					}
				}
			}
		}
	}
	if spilled < 600 || passes < 2*spilled {
		t.Errorf("%d sorts spilled through %d intermediate passes: the matrix no longer covers what it claims", spilled, passes)
	}
}

// FuzzExternalSort checks the spilling sort against the kernel on generated
// keys: each input byte is one row, ordered by its low bits (so ties are
// common) and tagged with its position, sorted at a budget of a few rows.
func FuzzExternalSort(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{3, 1, 2}, uint8(7), uint8(1))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(3), uint8(4))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, uint8(255), uint8(35))
	f.Fuzz(func(t *testing.T, data []byte, mask, budget uint8) {
		rows := make([]storage.Tuple, len(data))
		for i, b := range data {
			rows[i] = storage.Tuple{storage.Int(int64(b & mask)), storage.Int(0), storage.Int(int64(i))}
		}
		key := attrs.AscSeq(0)
		want := slices.Clone(rows)
		Stable(want, nil, func(a, b storage.Tuple) int { return storage.CompareSeq(a, b, key) })

		// budget picks the rows that fit.
		s := &Sorter{Key: key, MemoryBytes: (1 + int(budget)%24) * 72, Store: pagestore.NewMem(256, nil)}
		got, st, err := s.Sort(SliceInput(rows), len(rows))
		if err != nil || len(got) != len(want) {
			t.Fatalf("%v, %d of %d rows, %+v", err, len(got), len(want), st)
		}
		for i := range got {
			if got[i][2].Int64() != want[i][2].Int64() {
				t.Fatalf("row %d is tag %d, xsort.Stable put %d there (%+v)", i, got[i][2].Int64(), want[i][2].Int64(), st)
			}
		}
	})
}

func TestSortDescAndNulls(t *testing.T) {
	rows := []storage.Tuple{
		{storage.Null, storage.Int(0), storage.Int(0)},
		{storage.Int(5), storage.Int(0), storage.Int(1)},
		{storage.Int(7), storage.Int(0), storage.Int(2)},
	}
	key := attrs.Seq{{Attr: 0, Desc: true}}
	s := &Sorter{Key: key}
	got, _, err := s.SortTuples(rows)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0].Int64() != 7 || got[1][0].Int64() != 5 || !got[2][0].IsNull() {
		t.Errorf("desc nulls-last order wrong: %v", got)
	}
	keyNF := attrs.Seq{{Attr: 0, Desc: true, NullsFirst: true}}
	s2 := &Sorter{Key: keyNF}
	got2, _, err := s2.SortTuples(rows)
	if err != nil {
		t.Fatal(err)
	}
	if !got2[0][0].IsNull() {
		t.Errorf("nulls-first order wrong: %v", got2)
	}
}

func TestSortQuick(t *testing.T) {
	key := attrs.AscSeq(0, 1)
	err := quick.Check(func(seed int64, nRaw uint16, memRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%3000) + 1
		rows := randRows(rng, n, 30)
		mem := int(memRaw%8192) + 64
		s := &Sorter{Key: key, MemoryBytes: mem, Store: pagestore.NewMem(256, nil)}
		got, _, err := s.SortTuples(append([]storage.Tuple(nil), rows...))
		if err != nil {
			return false
		}
		return storage.SortedOn(got, key) && multisetEqual(got, rows)
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Error(err)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	s := &Sorter{Key: attrs.AscSeq(0)}
	got, st, err := s.SortTuples(nil)
	if err != nil || len(got) != 0 || !st.InMemory {
		t.Errorf("empty sort: %v %v %v", got, st, err)
	}
	got, _, err = s.SortTuples([]storage.Tuple{{storage.Int(1)}})
	if err != nil || len(got) != 1 {
		t.Errorf("single sort: %v %v", got, err)
	}
}

func TestComparisonsCounted(t *testing.T) {
	var cmps int64
	s := &Sorter{Key: attrs.AscSeq(0), Comparisons: &cmps}
	rows := randRows(rand.New(rand.NewSource(1)), 100, 10)
	_, st, err := s.SortTuples(rows)
	if err != nil {
		t.Fatal(err)
	}
	if cmps == 0 || st.Comparisons != cmps {
		t.Errorf("comparisons not counted: global=%d stats=%d", cmps, st.Comparisons)
	}
}

func ExampleSorter() {
	rows := []storage.Tuple{
		{storage.Int(3)}, {storage.Int(1)}, {storage.Int(2)},
	}
	s := &Sorter{Key: attrs.AscSeq(0)}
	sorted, _, _ := s.SortTuples(rows)
	for _, r := range sorted {
		fmt.Println(r[0])
	}
	// Output:
	// 1
	// 2
	// 3
}

// TestSortTuplesInPlace — a slice that fits the budget is sorted where it
// is: Segmented Sort and Hashed Sort reuse one unit buffer on that promise.
func TestSortTuplesInPlace(t *testing.T) {
	rows := randRows(rand.New(rand.NewSource(3)), 500, 10)
	s := &Sorter{Key: attrs.AscSeq(0, 1)}
	var got []storage.Tuple
	if n := testing.AllocsPerRun(5, func() { got, _, _ = s.SortTuples(rows) }); n != 0 {
		t.Fatalf("in-memory SortTuples allocates %v objects", n)
	}
	if &got[0] != &rows[0] || !storage.SortedOn(rows, s.Key) {
		t.Fatal("in-memory SortTuples did not sort its argument in place")
	}
}
