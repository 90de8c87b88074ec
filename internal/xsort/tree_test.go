package xsort

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/attrs"
	"repro/internal/pagestore"
	"repro/internal/storage"
)

// filledTree returns a sorter whose tree holds rows, one per leaf, all of
// one run and tagged with their position, built.
func filledTree(rows []storage.Tuple, cmps *int64) *Sorter {
	s := &Sorter{Key: attrs.AscSeq(0), Comparisons: cmps}
	leaves := s.startTree(len(rows))
	for i, r := range rows {
		leaves[i].seq, leaves[i].tuple = i, r
	}
	s.build()
	return s
}

// TestLoserTreeContract — what the tournament promises, for trees of one
// leaf, of a power of two and of the sizes a chain_spill sort builds: k−1
// matches to build, no more than ⌈log₂k⌉ to replay after a refill or a
// retirement, each match one counted comparison; and retiring the winner
// until none is left hands the leaves out in key order, equal keys in leaf
// order.
func TestLoserTreeContract(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 8, 250, 542} {
		rng := rand.New(rand.NewSource(int64(k)))
		rows := randRows(rng, k, 40)
		var cmps int64
		s := filledTree(rows, &cmps)
		if cmps != int64(k-1) {
			t.Errorf("k=%d: build played %d matches, want %d", k, cmps, k-1)
		}
		depth := int64(bits.Len(uint(k - 1)))
		keyThenTag := func(a, b storage.Tuple) int {
			if c := storage.CompareSeq(a, b, s.Key); c != 0 {
				return c
			}
			return int(a[2].Int64() - b[2].Int64())
		}
		replay := func(what string) {
			before := cmps
			s.replay()
			if cmps-before > depth {
				t.Fatalf("k=%d: replay after a %s played %d matches, over ⌈log₂k⌉ = %d", k, what, cmps-before, depth)
			}
		}

		// Refill: the winner's leaf takes a new tuple of the same run; the
		// tree must then hold the smallest of what the leaves hold.
		held := slices.Clone(rows)
		for seq := k; seq < 3*k+10; seq++ {
			w := s.tree.winner()
			fresh := storage.Tuple{storage.Int(rng.Int63n(40)), storage.Int(0), storage.Int(int64(seq))}
			held[s.tree.node[0]] = fresh
			w.tuple, w.seq = fresh, seq
			replay("refill")
			least := slices.MinFunc(held, keyThenTag)
			if got := s.tree.winner().tuple; got[2].Int64() != least[2].Int64() {
				t.Fatalf("k=%d: winner after refill %d is %v, the smallest leaf is %v", k, seq, got, least)
			}
		}

		// Drain: retire the winner until every leaf is retired.
		var out []storage.Tuple
		for w := s.tree.winner(); w.run != retired; w = s.tree.winner() {
			out = append(out, w.tuple)
			w.tuple, w.run = nil, retired
			replay("retirement")
		}
		slices.SortStableFunc(held, keyThenTag)
		if len(out) != k {
			t.Fatalf("k=%d: drained %d leaves", k, len(out))
		}
		for i := range out {
			if out[i][2].Int64() != held[i][2].Int64() {
				t.Fatalf("k=%d: leaf %d out is %v, want %v", k, i, out[i], held[i])
			}
		}
	}
}

// TestTreeRefillDoesNotAllocate — replacement selection refills and
// replays once per input tuple, a merge once per output tuple.
func TestTreeRefillDoesNotAllocate(t *testing.T) {
	var cmps int64
	s := filledTree(randRows(rand.New(rand.NewSource(5)), 512, 1000), &cmps)
	next := storage.Tuple{storage.Int(500), storage.Int(0), storage.Int(-1)}
	seq := 512
	if n := testing.AllocsPerRun(1000, func() {
		w := s.tree.winner()
		w.tuple, w.seq, w.run = next, seq, w.run+1
		seq++
		s.replay()
	}); n != 0 {
		t.Fatalf("refill + replay allocates %v objects", n)
	}
	if cmps == 0 {
		t.Fatal("the tree's matches were not counted")
	}
}

// chainSpillBudget is the benchmark's chain_spill budget for rows:
// M = ⌊0.85·√(B/2)⌋ blocks of 8 KB, where B is the blocks the rows take.
func chainSpillBudget(rows []storage.Tuple) (mem, blockSize int) {
	const block = 8192
	bytes := 0
	for _, r := range rows {
		bytes += r.Size()
	}
	return max(int(0.85*math.Sqrt(float64(bytes/block)/2)), 3) * block, block
}

// externalSort sorts rows at the chain_spill budget through Sort, as Full
// Sort does (the input slice itself is only read), and returns what it cost.
func externalSort(tb testing.TB, rows []storage.Tuple) Stats {
	mem, block := chainSpillBudget(rows)
	var cmps int64
	s := &Sorter{Key: attrs.AscSeq(0, 1), MemoryBytes: mem, Store: pagestore.NewMem(block, nil), Comparisons: &cmps}
	got, st, err := s.Sort(SliceInput(rows), len(rows))
	if err != nil || st.InMemory || len(got) != len(rows) {
		tb.Fatalf("external sort of %d rows: %v %+v", len(rows), err, st)
	}
	return st
}

// TestExternalSortGoldenCount pins what one seeded external sort asks for,
// as TestStableKernelGoldenCount does for the in-memory kernel:
// chain_spill's comparisons_per_op follows from it.
func TestExternalSortGoldenCount(t *testing.T) {
	const (
		golden = 213481
		heap   = 296788 // what the container/heap run formation and merge took
	)
	rows := randRows(rand.New(rand.NewSource(20120827)), 16000, 4000)
	if st := externalSort(t, rows); st.Comparisons != golden {
		t.Errorf("%d comparisons (%d runs, %d passes), the committed count is %d (the heaps took %d)",
			st.Comparisons, st.InitialRuns, st.MergePasses, golden, heap)
	}
}

// TestExternalSortComparisonsTrackModel — core.sortCmps prices a sort at
// n·log₂n comparisons; the external sort at the chain_spill budget must not
// ask for more (the heaps asked 1.32·n·log₂n, the tree 0.95).
func TestExternalSortComparisonsTrackModel(t *testing.T) {
	const n = 16000
	rows := randRows(rand.New(rand.NewSource(1)), n, 1<<40)
	st := externalSort(t, rows)
	model := n * math.Log2(n)
	t.Logf("%d comparisons = %.3f·n·log₂n, %d runs, %d passes", st.Comparisons, float64(st.Comparisons)/model, st.InitialRuns, st.MergePasses)
	if float64(st.Comparisons) > model {
		t.Errorf("%d comparisons, over the model's n·log₂n = %.0f", st.Comparisons, model)
	}
}

// BenchmarkExternalSort is the spilling sort on its own rung: 16 000 rows at
// the chain_spill budget, from a single-valued key to a nearly unique one.
// comparisons/row is exact. Heavy ties are where the heaps asked less — a
// sift stops at the first tie, a tournament plays every level: 3.95 → 10.44
// a row on the single-valued key; on the wider keys the tree asks less.
func BenchmarkExternalSort(b *testing.B) {
	const n = 16000
	for _, domain := range []int{1, 16, 4000} {
		b.Run(fmt.Sprintf("domain=%d", domain), func(b *testing.B) {
			rows := randRows(rand.New(rand.NewSource(1)), n, domain)
			var cmps int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cmps += externalSort(b, rows).Comparisons
			}
			b.ReportMetric(float64(cmps)/float64(b.N)/n, "comparisons/row")
		})
	}
}
