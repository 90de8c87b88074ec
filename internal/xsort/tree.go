package xsort

import (
	"math"
	"unsafe"

	"repro/internal/recycle"
	"repro/internal/spill"
	"repro/internal/storage"
)

// retired is the run of a leaf that has nothing more to give: it loses to
// every live leaf on the integer test alone.
const retired = math.MaxInt

// leaf is one contestant of the tournament: a buffer slot of replacement
// selection, or one run of a merge.
type leaf struct {
	run   int // run formation: the run the tuple goes out in; merge: 0; or retired
	seq   int // what decides between equal keys: arrival number, or index of the merged run
	tuple storage.Tuple
	rd    *spill.Reader // merge: where the leaf's next tuple comes from (its tree's readers[i]), nil once closed
}

// loserTree is a tournament tree of losers (Knuth 5.4.1) over k ≥ 1 fixed
// leaves: leaf i sits at position k+i of an implicit binary tree, node[p]
// for 1 ≤ p < k is the leaf that lost the match played at p, and node[0] is
// the leaf that lost none. Building it plays k−1 matches; after the
// winner's leaf has been refilled or retired, replay plays the ⌈log₂k⌉ or
// fewer matches on its way up — one per level, where a heap's sift-down
// asks two.
//
// A match is decided by (run, key, seq). Only the key is a counted
// Sorter.compare; run and seq are integer tests, and seq being distinct per
// leaf makes the order total: equal keys leave in arrival order.
//
// A sorter borrows its tree from trees for one phase — run formation, or
// one merge — and gives it back at the phase's end, so the arrays serve
// every sort of the process; readers holds a merge's open runs, leaf i
// reading through readers[i].
type loserTree struct {
	leaves  []leaf
	node    []int
	readers []spill.Reader
}

// trees is the free list sorters borrow their tournaments from.
var trees = recycle.NewList(func(t *loserTree) int64 {
	return int64(unsafe.Sizeof(*t)) + int64(cap(t.leaves))*int64(unsafe.Sizeof(leaf{})) + int64(cap(t.node))*int64(unsafe.Sizeof(0)) +
		int64(cap(t.readers))*int64(unsafe.Sizeof(spill.Reader{}))
})

// startTree borrows the sorter's tree, sized for k leaves, and returns them
// zeroed for the caller to fill before build.
func (s *Sorter) startTree(k int) []leaf {
	t := trees.Get()
	if cap(t.leaves) < k {
		t.leaves = make([]leaf, k)
		t.node = make([]int, k)
	}
	t.leaves, t.node = t.leaves[:k], t.node[:k]
	s.tree = t
	return t.leaves
}

// endTree closes the readers of the runs a merge has not exhausted, drops
// every tuple and reader and gives the tree back, so an idle sorter pins no
// row and no page, and neither does the free list.
func (s *Sorter) endTree() {
	t := s.tree
	if t == nil {
		return
	}
	for i := range t.leaves {
		if rd := t.leaves[i].rd; rd != nil {
			rd.Close()
		}
	}
	clear(t.leaves)
	clear(t.readers)
	t.leaves, t.readers = t.leaves[:0], t.readers[:0]
	s.tree = nil
	trees.Put(t)
}

// winner is the leaf every other one lost to, directly or not.
func (t *loserTree) winner() *leaf { return &t.leaves[t.node[0]] }

// beats reports whether leaf a goes out before leaf b.
func (s *Sorter) beats(a, b int) bool {
	x, y := &s.tree.leaves[a], &s.tree.leaves[b]
	if x.run != y.run {
		return x.run < y.run
	}
	if x.run != retired {
		if c := s.compare(x.tuple, y.tuple); c != 0 {
			return c < 0
		}
	}
	return x.seq < y.seq
}

// build plays the whole tournament over the filled leaves.
func (s *Sorter) build() { s.tree.node[0] = s.play(1) }

// play plays the matches of the subtree at position p and returns the leaf
// that won it.
func (s *Sorter) play(p int) int {
	k := len(s.tree.leaves)
	if p >= k {
		return p - k
	}
	a, b := s.play(2*p), s.play(2*p+1)
	if s.beats(b, a) {
		a, b = b, a
	}
	s.tree.node[p] = b
	return a
}

// replay plays the winner's leaf, whose content has changed, against the
// losers stored on its path to the root; whoever is left is the new winner.
func (s *Sorter) replay() {
	t := s.tree
	w := t.node[0]
	for p := (w + len(t.leaves)) / 2; p > 0; p /= 2 {
		if s.beats(t.node[p], w) {
			w, t.node[p] = t.node[p], w
		}
	}
	t.node[0] = w
}
