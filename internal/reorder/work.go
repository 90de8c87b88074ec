package reorder

import (
	"slices"
	"unsafe"

	"repro/internal/recycle"
	"repro/internal/spill"
	"repro/internal/storage"
)

// work is what one Hashed Sort borrows from works for its life and gives
// back, cleared, however it returns: its buckets, each with its resident
// array kept at the length it grew to, and the order they are written back
// in; the reader a spilled bucket is loaded through; and the arena it moves
// its resident rows to while it rewinds the chain's. So a warm operator
// allocates none of them, whatever its rows, buckets or spill files.
type work struct {
	buckets []hsBucket
	order   []*hsBucket
	reader  spill.Reader
	keep    *storage.TupleArena
}

var works = recycle.NewList((*work).bytes)

// bytes is the memory w retains.
func (w *work) bytes() int64 {
	const header = int64(unsafe.Sizeof(storage.Tuple{}))
	n := int64(unsafe.Sizeof(*w)) + int64(cap(w.buckets))*int64(unsafe.Sizeof(hsBucket{})) + int64(cap(w.order))*int64(unsafe.Sizeof((*hsBucket)(nil)))
	for _, b := range w.buckets[:cap(w.buckets)] {
		n += int64(cap(b.mem)) * header
	}
	if w.keep != nil {
		n += w.keep.Bytes()
	}
	return n
}

// bucketSet returns n empty buckets, in an order slice of their own for the
// caller to sort.
func (w *work) bucketSet(n int) []*hsBucket {
	w.buckets = slices.Grow(w.buckets[:0], n)[:n]
	w.order = slices.Grow(w.order[:0], n)[:n]
	for i := range w.buckets {
		w.order[i] = &w.buckets[i]
	}
	return w.order
}

// keepArena returns the work's keep arena, empty. Its rows have no spare
// capacity: they only wait there while the chain's arena is rewound.
func (w *work) keepArena() *storage.TupleArena {
	if w.keep == nil {
		w.keep = storage.NewTupleArena(0)
	}
	return w.keep
}

// giveBack clears w — every header array to its capacity, so an idle work
// pins no row — and puts it back in works. The caller has released every
// bucket's spill file and reads nothing of w afterwards.
func (w *work) giveBack() {
	all := w.buckets[:cap(w.buckets)]
	for i := range all {
		b := &all[i]
		clear(b.mem[:cap(b.mem)])
		*b = hsBucket{mem: b.mem[:0]}
	}
	clear(w.order[:cap(w.order)])
	w.buckets, w.order = w.buckets[:0], w.order[:0]
	w.reader = spill.Reader{}
	works.Put(w)
}
