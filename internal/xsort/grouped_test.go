package xsort

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/attrs"
	"repro/internal/storage"
)

// groupedShapes are the leading key columns the grouped sort's contract is
// stated over: some it groups, some it must leave to the kernel.
var groupedShapes = []struct {
	name string
	// groups says whether the shape's values may be grouped: a range is,
	// when it has at least minGroupRows rows and maxGroups distinct values.
	groups bool
	// nan says the values include a NaN, which makes the comparison
	// intransitive: no order is then the stable one, and the shape is held
	// to the kernel's own permutation instead of sort.SliceStable's.
	nan  bool
	lead func(rng *rand.Rand, i, n int) storage.Value
}{
	{"low-cardinality int with nulls", true, false, func(rng *rand.Rand, i, n int) storage.Value {
		if rng.Intn(8) == 0 {
			return storage.Null
		}
		return storage.Int(rng.Int63n(9) - 4)
	}},
	{"float with NaN and signed zeros", false, true, func(rng *rand.Rand, i, n int) storage.Value {
		return storage.Float([]float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, -2}[rng.Intn(5)])
	}},
	{"mixed int and float one", false, false, func(rng *rand.Rand, i, n int) storage.Value {
		if rng.Intn(2) == 0 {
			return storage.Float(1)
		}
		return storage.Int(int64(rng.Intn(2)))
	}},
	{"string", true, false, func(rng *rand.Rand, i, n int) storage.Value {
		return storage.StringVal([]string{"", "a", "ab", "b", "web", "sales"}[rng.Intn(6)])
	}},
	{"all-distinct", true, false, func(_ *rand.Rand, i, n int) storage.Value { return storage.Int(int64(i * 7919 % n)) }},
	{"presorted", true, false, func(_ *rand.Rand, i, n int) storage.Value { return storage.Int(int64(i * 10 / max(n, 1))) }},
}

// groupedRows builds n rows of a leading column, a second column of six
// values and NULL, a third of random ints, and the input position as tag
// in column 3.
func groupedRows(seed int64, n int, lead func(*rand.Rand, int, int) storage.Value) []storage.Tuple {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]storage.Tuple, n)
	for i := range rows {
		second := storage.Null
		if k := rng.Intn(7); k > 0 {
			second = storage.Int(int64(k))
		}
		rows[i] = storage.Tuple{lead(rng, i, n), second, storage.Int(rng.Int63n(1000)), storage.Int(int64(i))}
	}
	return rows
}

// TestGroupedSortContract — the Sorter's in-memory sort, whether it groups
// a range or leaves it to the kernel, puts every row tag for tag where
// sort.SliceStable puts it, for no more than n·⌈log₂n⌉ counted
// comparisons, over two- and three-column keys under every direction and
// NULLS placement of the leading column. Integer, NULL and string leading
// columns are grouped; a FLOAT anywhere in the leading column is not —
// a NaN compares equal to every number, −0.0 to +0.0 and Float(1) to
// Int(1), which a hash cannot follow.
func TestGroupedSortContract(t *testing.T) {
	leads := []attrs.Elem{
		{Attr: 0},
		{Attr: 0, NullsFirst: true},
		{Attr: 0, Desc: true},
		{Attr: 0, Desc: true, NullsFirst: true},
	}
	for _, shape := range groupedShapes {
		for _, n := range []int{0, 1, 15, 16, 17, 64, 257, 5000} {
			for _, lead := range leads {
				for _, key := range []attrs.Seq{
					{lead, {Attr: 1, Desc: true}},
					{lead, {Attr: 1, NullsFirst: true}, {Attr: 2}},
				} {
					rows := groupedRows(int64(n), n, shape.lead)
					name := fmt.Sprintf("%s n=%d key=%v", shape.name, n, key)
					less := func(a, b storage.Tuple) int { return storage.CompareSeq(a, b, key) }
					want := slices.Clone(rows)
					if shape.nan {
						StableTuples(want, less)
					} else {
						sort.SliceStable(want, func(i, j int) bool { return less(want[i], want[j]) < 0 })
					}

					var cmps int64
					s := &Sorter{Key: key, Comparisons: &cmps, Grouped: new(int64)}
					got, st, err := s.SortTuples(slices.Clone(rows))
					if err != nil || !st.InMemory || st.Comparisons != cmps {
						t.Fatalf("%s: in-memory sort: %v %+v, %d counted", name, err, st, cmps)
					}
					for i := range got {
						if got[i][3].Int64() != want[i][3].Int64() {
							t.Fatalf("%s: row %d is tag %d, the stable order puts %d there", name, i, got[i][3].Int64(), want[i][3].Int64())
						}
					}
					if bound := int64(n * bits.Len(uint(n-1))); cmps > bound {
						t.Errorf("%s: %d comparisons, over n·⌈log₂n⌉ = %d", name, cmps, bound)
					}
					grouped := int64(0)
					if shape.groups && n >= minGroupRows && distinctLeads(want) <= maxGroups(n) {
						grouped = int64(n)
					}
					if st.Grouped != grouped {
						t.Errorf("%s: %d of %d rows grouped, want %d", name, st.Grouped, n, grouped)
					}
				}
			}
		}
	}
	checkWorkspaceClean(t)
}

// distinctLeads counts the distinct values of column 0 in rows sorted on it.
func distinctLeads(sorted []storage.Tuple) int {
	d := 0
	for i, r := range sorted {
		if i == 0 || storage.CompareAt(sorted[i-1], r, attrs.Asc(0)) != 0 {
			d++
		}
	}
	return d
}

// TestGroupedSortAllocatesNothing — once the process has sorted that many
// rows, a grouped sort takes every array it needs from the workspace.
func TestGroupedSortAllocatesNothing(t *testing.T) {
	const n = 5000
	rows := randRows(rand.New(rand.NewSource(5)), n, 40)
	work := make([]storage.Tuple, n)
	var cmps int64
	s := &Sorter{Key: attrs.AscSeq(0, 1), Comparisons: &cmps, Grouped: new(int64)}
	sortOnce := func() {
		copy(work, rows)
		if _, st, err := s.SortTuples(work); err != nil || st.Grouped != n {
			t.Fatalf("sort: %v, %d of %d rows grouped", err, st.Grouped, n)
		}
	}
	sortOnce()
	if allocs := testing.AllocsPerRun(20, sortOnce); allocs != 0 {
		t.Errorf("a warm grouped sort of %d rows allocates %.1f times", n, allocs)
	}
	checkWorkspaceClean(t)
}

// FuzzGroupedSort holds the Sorter's in-memory sort to the kernel's
// permutation on fuzz-derived two-column keys. Each row takes two bytes:
// the first picks a leading value — NULL, a small INT, a FLOAT among NaN,
// ±0 and two numbers, or a STRING — the second the INT in column 1. dir
// sets the leading column's direction and NULLS placement.
func FuzzGroupedSort(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte("grouped sort: the leading key is placed by hash, the rest merged"), uint8(1))
	f.Add([]byte{1, 9, 2, 8, 3, 7, 1, 6, 2, 5, 3, 4, 1, 3, 2, 2, 3, 1, 1, 0, 2, 9, 3, 8, 1, 7, 2, 6, 3, 5, 1, 4, 0, 3, 0, 2}, uint8(2))
	f.Add([]byte{5, 0, 13, 1, 21, 2, 29, 3, 37, 4, 45, 5, 53, 6, 61, 7, 5, 8, 13, 9, 21, 0, 29, 1, 37, 2, 45, 3, 53, 4, 61, 5, 4, 6}, uint8(3))
	// −0.0 (12) and +0.0 (20) alternating, equal under Compare: column 1
	// alone orders them.
	f.Add([]byte{12, 6, 20, 5, 12, 4, 20, 3, 12, 2, 20, 1, 12, 0, 20, 6, 12, 5, 20, 4, 12, 3, 20, 2, 12, 1, 20, 0, 12, 6, 20, 5, 12, 4, 20, 3}, uint8(0))
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, 1, 2.5}
	strs := []string{"", "a", "b", "ba"}
	f.Fuzz(func(t *testing.T, data []byte, dir uint8) {
		rows := make([]storage.Tuple, len(data)/2)
		for i := range rows {
			b := data[2*i]
			var lead storage.Value
			switch b % 8 {
			case 0:
				lead = storage.Null
			case 4:
				lead = storage.Float(floats[int(b>>3)%len(floats)])
			case 5, 6:
				lead = storage.StringVal(strs[int(b>>3)%len(strs)])
			default:
				lead = storage.Int(int64(b>>3) % 5)
			}
			rows[i] = storage.Tuple{lead, storage.Int(int64(data[2*i+1] % 7)), storage.Int(int64(i))}
		}
		key := attrs.Seq{{Attr: 0, Desc: dir&1 != 0, NullsFirst: dir&2 != 0}, {Attr: 1}}
		want := slices.Clone(rows)
		StableTuples(want, func(a, b storage.Tuple) int { return storage.CompareSeq(a, b, key) })

		s := &Sorter{Key: key}
		got, _, err := s.SortTuples(slices.Clone(rows))
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i][2].Int64() != want[i][2].Int64() {
				t.Fatalf("row %d is tag %d, the kernel puts %d there", i, got[i][2].Int64(), want[i][2].Int64())
			}
		}
	})
}

// BenchmarkSorterInMemory is the Sorter's in-memory sort on its own rung at
// a whole in-memory Full Sort's size: a leading key of about 113 distinct
// values (ws_item_sk's at 40 000 rows), which it groups, and a unique one,
// which it leaves to the kernel after a probe pass. comparisons/op is
// exact and B/op is 0 once the workspace holds scratch that long.
func BenchmarkSorterInMemory(b *testing.B) {
	const n = 40000
	for _, shape := range []struct {
		name   string
		domain int
	}{{"lead=113", 113}, {"lead=unique", 1 << 40}} {
		b.Run(shape.name, func(b *testing.B) {
			rows := randRows(rand.New(rand.NewSource(1)), n, shape.domain)
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
