package xsort

// tupleHeap is container/heap over a typed slice. container/heap moves
// every pushed and popped element through interface{}, one allocation
// each; this keeps its sift-up and sift-down line for line, so it calls
// less on the same pairs in the same order and the sort's comparison count
// — the paper's CPU currency — is exactly what container/heap produced.
type tupleHeap[T any] struct {
	items []T
	less  func(a, b T) bool
}

func (h *tupleHeap[T]) init() {
	n := len(h.items)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h *tupleHeap[T]) push(x T) {
	h.items = append(h.items, x)
	h.up(len(h.items) - 1)
}

// pop removes and returns the minimum.
func (h *tupleHeap[T]) pop() T {
	n := len(h.items) - 1
	h.items[0], h.items[n] = h.items[n], h.items[0]
	h.down(0, n)
	x := h.items[n]
	var zero T
	h.items[n] = zero
	h.items = h.items[:n]
	return x
}

// fixTop restores the heap after the minimum was replaced in place
// (container/heap's Fix(h, 0): a root can only move down).
func (h *tupleHeap[T]) fixTop() { h.down(0, len(h.items)) }

func (h *tupleHeap[T]) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(h.items[j], h.items[i]) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		j = i
	}
}

func (h *tupleHeap[T]) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(h.items[j2], h.items[j1]) {
			j = j2 // right child
		}
		if !h.less(h.items[j], h.items[i]) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		i = j
	}
}
