package xsort

import (
	"unsafe"

	"repro/internal/recycle"
	"repro/internal/storage"
)

// insertionBlock is the longest slice Stable sorts by binary insertion,
// which needs no scratch: at six elements it asks for 9.7 comparisons on
// average against the 9.5 any sort must.
const insertionBlock = 6

// Stable sorts a in place, keeping the input order of elements that compare
// equal, with a top-down merge sort: each half is sorted, the left one is
// copied to scratch and the two are merged back, the right element going
// first only when it compares below the left one. Two halves that are
// already in order cost their merge one comparison. On random keys that is
// about n·log₂n − 1.25n comparisons and n·log₂n moves — never more than
// n·⌈log₂n⌉ comparisons, and under 3n on sorted input — where
// slices.SortStableFunc's in-place symMerge takes 1.27·n·log₂n
// comparisons and O(n·log²n) swaps. Being stable, it puts every element
// where any other stable sort would.
//
// scratch must hold len(a)/2 elements when a is longer than an insertion
// block; a shorter one (nil, say) is replaced by a new allocation. Stable
// leaves copies of elements in scratch: a caller that keeps it clears it.
func Stable[T any](a, scratch []T, cmp func(x, y T) int) {
	if need := scratchLen(len(a)); len(scratch) < need {
		scratch = make([]T, need)
	}
	mergeSort(a, scratch, cmp)
}

// scratchLen is the scratch Stable needs for n elements.
func scratchLen(n int) int {
	if n <= insertionBlock {
		return 0
	}
	return n / 2
}

func mergeSort[T any](a, scratch []T, cmp func(x, y T) int) {
	if len(a) <= insertionBlock {
		insertionSort(a, cmp)
		return
	}
	mid := len(a) / 2
	mergeSort(a[:mid], scratch, cmp)
	mergeSort(a[mid:], scratch, cmp)
	if cmp(a[mid], a[mid-1]) >= 0 {
		return
	}
	left := scratch[:copy(scratch, a[:mid])]
	i, j, k := 0, mid, 0
	for i < len(left) && j < len(a) {
		if cmp(a[j], left[i]) < 0 {
			a[k] = a[j]
			j++
		} else {
			a[k] = left[i]
			i++
		}
		k++
	}
	// What is left of the right half is already in place.
	copy(a[k:], left[i:])
}

// insertionSort is a stable binary insertion sort: each element goes after
// the last one that does not compare above it.
func insertionSort[T any](a []T, cmp func(x, y T) int) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		lo, hi := 0, i
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if cmp(x, a[m]) < 0 {
				hi = m
			} else {
				lo = m + 1
			}
		}
		copy(a[lo+1:i+1], a[lo:i])
		a[lo] = x
	}
}

// TopK returns the indices of the k first of n elements under cmp, in
// order, ties going to the lower index: exactly the first k entries of a
// stable sort of 0..n-1, for 0 ≤ k ≤ n. It holds k indices instead of n — a
// max-heap of the k best elements so far, whose worst gives way to each
// later element that sorts before it, and which a heapsort then empties
// into place — and asks n + O(k·log n) comparisons when the input is in
// random order.
func TopK(n, k int, cmp func(i, j int) int) []int {
	before := func(i, j int) bool {
		c := cmp(i, j)
		return c < 0 || (c == 0 && i < j)
	}
	siftDown := func(heap []int, i int) {
		for c := 2*i + 1; c < len(heap); i, c = c, 2*c+1 {
			if c+1 < len(heap) && before(heap[c], heap[c+1]) {
				c++
			}
			if !before(heap[i], heap[c]) {
				return
			}
			heap[i], heap[c] = heap[c], heap[i]
		}
	}
	heap := make([]int, k)
	for i := range heap {
		heap[i] = i
	}
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(heap, i)
	}
	for i := k; k > 0 && i < n; i++ {
		if before(i, heap[0]) {
			heap[0] = i
			siftDown(heap, 0)
		}
	}
	for last := k - 1; last > 0; last-- {
		heap[0], heap[last] = heap[last], heap[0]
		siftDown(heap[:last], 0)
	}
	return heap
}

// StableTuples is Stable over rows with its scratch borrowed from the
// process-wide workspace, so a statement's sorts allocate nothing once the
// process has sorted that many rows before.
func StableTuples(rows []storage.Tuple, cmp func(a, b storage.Tuple) int) {
	need := scratchLen(len(rows))
	if need == 0 {
		mergeSort(rows, nil, cmp)
		return
	}
	sc := borrowScratch(need)
	// Deferred so a panicking comparison hands the scratch back too, once
	// and empty.
	defer giveBackScratch(sc)
	mergeSort(rows, sc.rows, cmp)
}

// sortScratch is what one in-memory sort borrows: the kernel's merge
// scratch and, for the grouped sort (grouped.go), each row's group and
// then its place, the probe table, the first row of each group of the
// range being grouped and a stack of every level's groups. rows is
// borrowed at the length the sort needs; the other arrays grow when a sort
// needs them longer and are kept at that length.
type sortScratch struct {
	rows   []storage.Tuple
	ids    []int32
	table  []int32
	firsts []int32
	groups []int32
}

// scratches is the free list of sort scratch. The scratch must survive a
// GC — a statement that finds it emptied allocates half its row count in
// headers, which is what the list exists to avoid — and a scratch in it
// holds no tuple.
var scratches = recycle.NewList((*sortScratch).bytes)

// borrowScratch takes the free scratch that retains the least among those
// with rows of at least n headers, or a new one, and returns it with rows
// of length n. The caller owns it until giveBackScratch.
func borrowScratch(n int) *sortScratch {
	sc := scratches.GetFit(func(sc *sortScratch) bool { return cap(sc.rows) >= n })
	if cap(sc.rows) < n {
		sc.rows = make([]storage.Tuple, n)
	}
	sc.rows = sc.rows[:n]
	return sc
}

// giveBackScratch clears sc's rows — they were borrowed at the length that
// was used — and puts it in the list.
func giveBackScratch(sc *sortScratch) {
	clear(sc.rows)
	scratches.Put(sc)
}

// bytes is the memory sc retains.
func (sc *sortScratch) bytes() int64 {
	return int64(cap(sc.rows))*int64(unsafe.Sizeof(storage.Tuple{})) +
		int64(cap(sc.ids)+cap(sc.table)+cap(sc.firsts)+cap(sc.groups))*4
}

// WorkspaceBytes reports the memory the idle sort workspace retains: the
// scratch waiting in the free list, not the scratch a running sort holds.
// It is part of recycle.Idle's bytes.
func WorkspaceBytes() int64 {
	_, n := scratches.Idle()
	return n
}
