// Package spill frames tuples into pagestore files: sort runs, hash-sort
// buckets and any other temporary tuple sequences share this codec. Tuples
// are written back-to-back in the self-describing binary encoding of
// package storage; the reader reassembles them across page boundaries.
package spill

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/pagestore"
	"repro/internal/storage"
)

// Writer appends tuples to a spill file. It is a handle on the file, passed
// by value; the zero Writer has no file.
type Writer struct {
	file *pagestore.File
}

// NewWriter creates a fresh spill file in store.
func NewWriter(store *pagestore.Store) (Writer, error) {
	f, err := store.Create()
	if err != nil {
		return Writer{}, err
	}
	return Writer{file: f}, nil
}

// Write appends one tuple, encoded in the store's scratch buffer, which
// every writer of the store shares.
func (w Writer) Write(t storage.Tuple) error {
	buf := w.file.Store().Scratch()
	*buf = storage.AppendTuple((*buf)[:0], t)
	_, err := w.file.Write(*buf)
	return err
}

// Finish seals the file and returns it for reading.
func (w Writer) Finish() (*pagestore.File, error) {
	if err := w.file.Seal(); err != nil {
		return nil, err
	}
	return w.file, nil
}

// File returns the underlying file (valid before Finish for size queries),
// nil for the zero Writer.
func (w Writer) File() *pagestore.File { return w.file }

// Abort gives up the file, finished or not, and releases what it holds.
func (w Writer) Abort() { w.file.Release() }

// Reader decodes tuples back out of a sealed spill file. The zero Reader is
// closed; Open points it at a file.
type Reader struct {
	rd    pagestore.Reader
	store *pagestore.Store // where buf came from
	arena *storage.TupleArena
	buf   []byte
	pos   int
	fill  int
	eof   bool
}

// NewReader opens a sealed spill file for sequential tuple reads. The
// tuples it returns are decoded into an arena of the reader's own and have
// no spare capacity.
func NewReader(f *pagestore.File) (*Reader, error) {
	r := new(Reader)
	if err := r.Open(f, storage.NewTupleArena(0)); err != nil {
		return nil, err
	}
	return r, nil
}

// Open points r, closed, at the start of the sealed file f, decoding into
// arena, which the readers of one merge or one bucket share: the rows come
// out with the arena's row capacity, laid out in the order they were read.
// The read buffer is one page from the store's block pool — what the
// merge-order arithmetic of xsort budgets per run — and grows only for a
// tuple that does not fit in it; Close hands it back. A reader kept in an
// array (a merge's, a bucket load's) is opened where it lies and allocates
// nothing.
func (r *Reader) Open(f *pagestore.File, arena *storage.TupleArena) error {
	*r = Reader{store: f.Store(), arena: arena}
	if err := r.rd.Open(f); err != nil {
		return err
	}
	r.buf = r.store.Block()
	return nil
}

// Next returns the next tuple; ok is false at end of file.
func (r *Reader) Next() (t storage.Tuple, ok bool, err error) {
	for {
		if r.pos < r.fill {
			// A tuple cut off by the end of the buffer fails to decode and
			// leaves the arena untouched; refill and decode it again.
			t, n, derr := r.arena.Decode(r.buf[r.pos:r.fill])
			if derr == nil {
				r.pos += n
				return t, true, nil
			}
			if r.eof {
				return nil, false, fmt.Errorf("spill: the file's last %d bytes are not a whole tuple: %w", r.fill-r.pos, derr)
			}
		} else if r.eof {
			return nil, false, nil
		}
		if err := r.refill(); err != nil {
			return nil, false, err
		}
	}
}

func (r *Reader) refill() error {
	remain := r.fill - r.pos
	copy(r.buf[:cap(r.buf)][:remain], r.buf[r.pos:r.fill])
	r.buf = r.buf[:cap(r.buf)]
	if remain == len(r.buf) {
		bigger := make([]byte, 2*len(r.buf))
		copy(bigger, r.buf[:remain])
		r.store.Recycle(r.buf)
		r.buf = bigger
	}
	n, err := r.rd.Read(r.buf[remain:])
	r.fill = remain + n
	r.pos = 0
	if n == 0 {
		r.eof = true
	}
	if err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	return nil
}

// Close releases the reader and its page buffer; the tuples it returned
// stay valid. Closing twice, or a zero Reader, is harmless.
func (r *Reader) Close() {
	if r.buf != nil {
		r.store.Recycle(r.buf)
		r.buf = nil
	}
	r.rd.Close()
}
