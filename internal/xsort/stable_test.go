package xsort

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/attrs"
	"repro/internal/storage"
)

// kernelShapes are the key distributions the kernel's contract is stated
// over. Every row carries its input position in column 2; a tenth of the
// heavy-tie keys are NULL so NULLS FIRST/LAST has something to order.
var kernelShapes = []struct {
	name string
	key  func(rng *rand.Rand, i, n int) storage.Value
}{
	{"heavy ties", func(rng *rand.Rand, i, n int) storage.Value {
		if rng.Intn(10) == 0 {
			return storage.Null
		}
		return storage.Int(rng.Int63n(12))
	}},
	{"presorted", func(_ *rand.Rand, i, n int) storage.Value { return storage.Int(int64(i / 3)) }},
	{"reverse-sorted", func(_ *rand.Rand, i, n int) storage.Value { return storage.Int(int64((n - i) / 3)) }},
	{"all-equal", func(_ *rand.Rand, i, n int) storage.Value { return storage.Int(7) }},
	{"two-valued", func(rng *rand.Rand, i, n int) storage.Value { return storage.Int(rng.Int63n(2)) }},
}

func shapedRows(seed int64, n int, key func(*rand.Rand, int, int) storage.Value) []storage.Tuple {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]storage.Tuple, n)
	for i := range rows {
		rows[i] = storage.Tuple{key(rng, i, n), storage.Int(0), storage.Int(int64(i))}
	}
	return rows
}

// TestStableKernelContract — what the in-memory sort promises, whatever
// its algorithm: the rows land tag for tag where sort.SliceStable puts
// them, for no more than n·⌈log₂n⌉ counted comparisons, and no more than
// 3n when the input is already in order. Sizes sit on either side of the
// insertion block and of the first merges.
func TestStableKernelContract(t *testing.T) {
	directions := []attrs.Seq{
		{{Attr: 0}},
		{{Attr: 0, NullsFirst: true}},
		{{Attr: 0, Desc: true}},
		{{Attr: 0, Desc: true, NullsFirst: true}},
	}
	for _, shape := range kernelShapes {
		for _, n := range []int{0, 1, 2, 5, 6, 7, 8, 19, 20, 21, 257, 5000} {
			for _, key := range directions {
				rows := shapedRows(int64(n), n, shape.key)
				name := fmt.Sprintf("%s n=%d key=%v", shape.name, n, key)

				want := slices.Clone(rows)
				sort.SliceStable(want, func(i, j int) bool {
					return storage.CompareSeq(want[i], want[j], key) < 0
				})

				var cmps int64
				s := &Sorter{Key: key, Comparisons: &cmps}
				got, st, err := s.SortTuples(slices.Clone(rows))
				if err != nil || !st.InMemory || st.Comparisons != cmps {
					t.Fatalf("%s: in-memory sort: %v %+v, %d counted", name, err, st, cmps)
				}
				for i := range got {
					if got[i][2].Int64() != want[i][2].Int64() {
						t.Fatalf("%s: row %d is tag %d, sort.SliceStable put %d there", name, i, got[i][2].Int64(), want[i][2].Int64())
					}
				}
				if bound := int64(n * bits.Len(uint(n-1))); cmps > bound {
					t.Errorf("%s: %d comparisons, over n·⌈log₂n⌉ = %d", name, cmps, bound)
				}
				if storage.SortedOn(rows, key) && cmps > int64(3*n) {
					t.Errorf("%s: %d comparisons on input already in order, over 3n = %d", name, cmps, 3*n)
				}
			}
		}
	}
}

// TestTopKIsTheStableSortsPrefix — the bounded selection returns, index for
// index, the first k entries of sort.SliceStable over every shape and every
// k from none to all, cuts inside ties included; and on keys in random
// order a small k costs about one comparison an element, not a sort's.
func TestTopKIsTheStableSortsPrefix(t *testing.T) {
	for _, shape := range kernelShapes {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			rows := shapedRows(int64(n), n, shape.key)
			key := attrs.Seq{{Attr: 0, Desc: n%2 == 1, NullsFirst: true}}
			want := slices.Clone(rows)
			sort.SliceStable(want, func(i, j int) bool { return storage.CompareSeq(want[i], want[j], key) < 0 })
			for _, k := range []int{0, 1, 2, n / 10, n / 2, n - 1, n} {
				if k < 0 || k > n {
					continue
				}
				got := TopK(n, k, func(i, j int) int { return storage.CompareSeq(rows[i], rows[j], key) })
				if len(got) != k {
					t.Fatalf("%s n=%d k=%d: %d indices", shape.name, n, k, len(got))
				}
				for i, idx := range got {
					if tag := want[i][2].Int64(); int64(idx) != tag {
						t.Fatalf("%s n=%d k=%d: entry %d is element %d, sort.SliceStable put %d there", shape.name, n, k, i, idx, tag)
					}
				}
			}
		}
	}
	const n, k = 20000, 100
	rng := rand.New(rand.NewSource(1))
	keys := rng.Perm(n)
	cmps := 0
	TopK(n, k, func(i, j int) int { cmps++; return keys[i] - keys[j] })
	if cmps > 2*n {
		t.Errorf("top %d of %d random keys took %d comparisons, want about n", k, n, cmps)
	}
}

// TestStableKernelGoldenCount pins the merge kernel's comparison count on
// one fixed input. Comparisons are the paper's CPU currency: every range
// the grouped sort does not group is sorted by this kernel, so a change to
// it is a change to the currency, to be made on purpose and recorded.
func TestStableKernelGoldenCount(t *testing.T) {
	const n, golden = 5000, 56045
	rows := randRows(rand.New(rand.NewSource(20120827)), n, 12)
	key := attrs.AscSeq(0, 1)
	var cmps int64
	StableTuples(rows, func(a, b storage.Tuple) int {
		cmps++
		return storage.CompareSeq(a, b, key)
	})
	if cmps != golden {
		t.Fatalf("%d comparisons for %d rows of seed 20120827, the committed count is %d (slices.SortStableFunc took 69961)", cmps, n, golden)
	}
}

// TestSorterGoldenCount pins what the Sorter's in-memory sort asks for on
// the kernel's golden input: both key columns have 12 values, so the rows
// are placed by grouping on each in turn and only the distinct values of
// each range are compared. Every benchmark's comparisons_per_op follows
// from this path.
func TestSorterGoldenCount(t *testing.T) {
	const n, golden = 5000, 402
	rows := randRows(rand.New(rand.NewSource(20120827)), n, 12)
	var cmps int64
	s := &Sorter{Key: attrs.AscSeq(0, 1), Comparisons: &cmps, Grouped: new(int64)}
	_, st, err := s.SortTuples(rows)
	if err != nil {
		t.Fatal(err)
	}
	if cmps != golden || st.Grouped != n {
		t.Fatalf("%d comparisons and %d rows grouped for %d rows of seed 20120827, the committed count is %d (the merge kernel takes 56045)", cmps, st.Grouped, n, golden)
	}
}

// checkWorkspaceClean asserts what holds of the free list whenever no sort
// is running: at most GOMAXPROCS scratches, no two of them the same
// memory, and every slot of every one's rows — to its capacity, not its
// length — the zero Tuple, so an idle workspace pins no row.
func checkWorkspaceClean(t *testing.T) {
	t.Helper()
	idle := make([]*sortScratch, scratches.Len())
	for i := range idle {
		idle[i] = scratches.Get()
	}
	defer func() {
		for _, sc := range idle {
			scratches.Put(sc)
		}
	}()
	if slots := runtime.GOMAXPROCS(0); len(idle) > slots {
		t.Errorf("workspace holds %d scratches, over its %d slots", len(idle), slots)
	}
	seen := map[*storage.Tuple]bool{}
	for _, sc := range idle {
		b := sc.rows[:cap(sc.rows)]
		if seen[&b[0]] {
			t.Errorf("workspace holds one scratch twice")
		}
		seen[&b[0]] = true
		for i, slot := range b {
			if slot != nil {
				t.Fatalf("slot %d of a returned %d-header scratch still holds a tuple", i, len(b))
			}
		}
	}
}

// TestWorkspaceHoldsNoTuples — a buffer back in the free list is all zero
// headers: sorts of growing and shrinking sizes, which reuse a long buffer
// at a short length, leave nothing in any slot.
func TestWorkspaceHoldsNoTuples(t *testing.T) {
	s := &Sorter{Key: attrs.AscSeq(0, 1)}
	for _, n := range []int{4000, 50, 9000, 7, 300} {
		rows := randRows(rand.New(rand.NewSource(int64(n))), n, 12)
		if _, _, err := s.SortTuples(rows); err != nil {
			t.Fatal(err)
		}
		checkWorkspaceClean(t)
	}
	if WorkspaceBytes() < 4500*24 {
		t.Errorf("WorkspaceBytes = %d after a 9000-row sort, want its 4500-header scratch retained", WorkspaceBytes())
	}
}

// TestWorkspaceSurvivesPanic — a comparison that panics halfway through a
// merge hands the scratch back exactly once, empty, and the next sort is
// none the worse.
func TestWorkspaceSurvivesPanic(t *testing.T) {
	rows := randRows(rand.New(rand.NewSource(11)), 2000, 12)
	key := attrs.AscSeq(0, 1)
	StableTuples(slices.Clone(rows), func(a, b storage.Tuple) int { return storage.CompareSeq(a, b, key) })
	before := scratches.Len()

	for _, after := range []int{1, 500, 15000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("comparison %d did not panic", after)
				}
			}()
			calls := 0
			StableTuples(slices.Clone(rows), func(a, b storage.Tuple) int {
				if calls++; calls == after {
					panic("comparison failed")
				}
				return storage.CompareSeq(a, b, key)
			})
		}()
		if got := scratches.Len(); got != before {
			t.Fatalf("workspace holds %d buffers after a panic at comparison %d, held %d before", got, after, before)
		}
		checkWorkspaceClean(t)
	}

	got := slices.Clone(rows)
	StableTuples(got, func(a, b storage.Tuple) int { return storage.CompareSeq(a, b, key) })
	if !storage.SortedOn(got, key) || !multisetEqual(got, rows) {
		t.Fatal("sort after the panics is wrong")
	}
}

// TestConcurrentSortsShareNoScratch — twice GOMAXPROCS goroutines sort
// different sizes at once: under -race two sorts merging through one
// buffer are a reported race, and without it a wrong result.
func TestConcurrentSortsShareNoScratch(t *testing.T) {
	key := attrs.AscSeq(0, 1)
	var wg sync.WaitGroup
	for g := 0; g < 2*runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			s := &Sorter{Key: key}
			for round := 0; round < 20; round++ {
				rows := randRows(rng, 10+rng.Intn(3000), 12)
				got, _, err := s.SortTuples(slices.Clone(rows))
				if err != nil || !storage.SortedOn(got, key) || !multisetEqual(got, rows) {
					t.Errorf("goroutine %d round %d: wrong result (%v)", g, round, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	checkWorkspaceClean(t)
}

// FuzzStableKernel checks the kernel against slices.SortStableFunc on
// generated keys: each input byte is one element, ordered by its low bits
// (so ties are common) and tagged with its position.
func FuzzStableKernel(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{3, 1, 2}, uint8(7))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(3))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, mask uint8) {
		type elem struct {
			key byte
			pos int
		}
		cmp := func(a, b elem) int { return int(a.key) - int(b.key) }
		in := make([]elem, len(data))
		for i, b := range data {
			in[i] = elem{b & mask, i}
		}
		want := slices.Clone(in)
		slices.SortStableFunc(want, cmp)

		got := slices.Clone(in)
		Stable(got, nil, cmp)
		if !slices.Equal(got, want) {
			t.Fatalf("Stable with its own scratch: %v, slices.SortStableFunc: %v", got, want)
		}
		// An exact-size scratch the caller supplies.
		got = slices.Clone(in)
		Stable(got, make([]elem, len(in)/2), cmp)
		if !slices.Equal(got, want) {
			t.Fatalf("Stable over a supplied scratch: %v, slices.SortStableFunc: %v", got, want)
		}
	})
}

// BenchmarkSortKernel is the in-memory sort on its own rung: the size of a
// Segmented Sort unit, of a Hashed Sort bucket and of a whole in-memory
// Full Sort, on random, presorted and heavy-tie keys. comparisons/op is
// exact and B/op is 0 once the workspace holds a buffer that long.
func BenchmarkSortKernel(b *testing.B) {
	for _, n := range []int{16, 600, 40000} {
		for _, shape := range []struct {
			name string
			rows func() []storage.Tuple
		}{
			{"random", func() []storage.Tuple { return randRows(rand.New(rand.NewSource(1)), n, 1<<40) }},
			{"presorted", func() []storage.Tuple {
				rows := randRows(rand.New(rand.NewSource(1)), n, 1<<40)
				Stable(rows, nil, func(a, b storage.Tuple) int { return storage.CompareSeq(a, b, attrs.AscSeq(0, 1)) })
				return rows
			}},
			{"heavy-tie", func() []storage.Tuple { return randRows(rand.New(rand.NewSource(1)), n, 12) }},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, shape.name), func(b *testing.B) {
				rows := shape.rows()
				work := make([]storage.Tuple, n)
				var cmps int64
				s := &Sorter{Key: attrs.AscSeq(0, 1), Comparisons: &cmps}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(work, rows)
					if _, _, err := s.SortTuples(work); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(cmps)/float64(b.N), "comparisons/op")
			})
		}
	}
}
