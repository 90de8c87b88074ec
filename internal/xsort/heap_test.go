package xsort

import (
	"container/heap"
	"math/rand"
	"testing"

	"repro/internal/attrs"
	"repro/internal/storage"
)

// boxedHeap is the container/heap implementation tupleHeap replaced.
type boxedHeap struct {
	items []int
	less  func(a, b int) bool
}

func (h *boxedHeap) Len() int           { return len(h.items) }
func (h *boxedHeap) Less(i, j int) bool { return h.less(h.items[i], h.items[j]) }
func (h *boxedHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *boxedHeap) Push(x interface{}) { h.items = append(h.items, x.(int)) }
func (h *boxedHeap) Pop() interface{} {
	n := len(h.items)
	x := h.items[n-1]
	h.items = h.items[:n-1]
	return x
}

// TestTupleHeapComparesLikeContainerHeap — comparisons are the paper's CPU
// currency, so the typed heap must not merely sort like container/heap: it
// must call less on the same pairs in the same order. Both heaps run the
// same random mix of init, push, pop and replace-top and log every call.
func TestTupleHeapComparesLikeContainerHeap(t *testing.T) {
	type call struct{ a, b int }
	var boxedLog, typedLog []call
	boxed := &boxedHeap{less: func(a, b int) bool { boxedLog = append(boxedLog, call{a, b}); return a < b }}
	typed := &tupleHeap[int]{less: func(a, b int) bool { typedLog = append(typedLog, call{a, b}); return a < b }}

	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		v := rng.Intn(100) // duplicates: ties take the same branch on both
		boxed.items = append(boxed.items, v)
		typed.items = append(typed.items, v)
	}
	heap.Init(boxed)
	typed.init()
	for op := 0; op < 5000; op++ {
		switch k := rng.Intn(3); {
		case k == 0 || len(typed.items) == 0:
			v := rng.Intn(100)
			heap.Push(boxed, v)
			typed.push(v)
		case k == 1:
			if b, g := heap.Pop(boxed).(int), typed.pop(); b != g {
				t.Fatalf("op %d: pop %d, container/heap popped %d", op, g, b)
			}
		default:
			v := rng.Intn(100)
			boxed.items[0], typed.items[0] = v, v
			heap.Fix(boxed, 0)
			typed.fixTop()
		}
	}
	if len(typedLog) != len(boxedLog) {
		t.Fatalf("%d less calls, container/heap made %d", len(typedLog), len(boxedLog))
	}
	for i := range typedLog {
		if typedLog[i] != boxedLog[i] {
			t.Fatalf("less call %d is %v, container/heap's was %v", i, typedLog[i], boxedLog[i])
		}
	}
}

// TestRunHeapDoesNotAllocate — replacement selection pushes and pops once
// per input tuple.
func TestRunHeapDoesNotAllocate(t *testing.T) {
	var cmps int64
	s := &Sorter{Key: attrs.AscSeq(0), Comparisons: &cmps}
	rows := randRows(rand.New(rand.NewSource(5)), 512, 1000)
	h := s.newRunHeap(len(rows))
	for _, r := range rows {
		h.items = append(h.items, rsItem{tuple: r})
	}
	h.init()
	next := storage.Tuple{storage.Int(500), storage.Int(0), storage.Int(-1)}
	if n := testing.AllocsPerRun(1000, func() {
		it := h.pop()
		it.tuple, it.run = next, it.run+1
		h.push(it)
	}); n != 0 {
		t.Fatalf("pop+push allocates %v objects", n)
	}
	if cmps == 0 {
		t.Fatal("the heap's comparisons were not counted")
	}
}
