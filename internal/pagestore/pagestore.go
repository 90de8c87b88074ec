// Package pagestore simulates the block device underneath the reordering
// operators. Spill files (sort runs, hash buckets) are written and read at
// page granularity and every page transfer is counted, so experiments can
// report exact block-I/O figures — the currency of the paper's cost models —
// independently of the machine's real disk.
//
// Two backends are provided: a memory backend (default; deterministic and
// fast, used by tests and benchmarks) and a file backend (temp files on the
// real filesystem, for runs larger than RAM). Both account identically.
package pagestore

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"unsafe"
)

// DefaultBlockSize is the page size used throughout the system when a
// configuration does not override it (8 KiB, PostgreSQL's default).
const DefaultBlockSize = 8192

// Stats accumulates block transfer counts. Safe for concurrent use.
type Stats struct {
	blocksRead    atomic.Int64
	blocksWritten atomic.Int64
	bytesRead     atomic.Int64
	bytesWritten  atomic.Int64
}

// BlocksRead returns the number of pages read back from spill files.
func (s *Stats) BlocksRead() int64 { return s.blocksRead.Load() }

// BlocksWritten returns the number of pages written to spill files.
func (s *Stats) BlocksWritten() int64 { return s.blocksWritten.Load() }

// BytesRead returns the payload bytes read back.
func (s *Stats) BytesRead() int64 { return s.bytesRead.Load() }

// BytesWritten returns the payload bytes written.
func (s *Stats) BytesWritten() int64 { return s.bytesWritten.Load() }

// TotalBlocks returns reads+writes, the paper's cost unit.
func (s *Stats) TotalBlocks() int64 { return s.BlocksRead() + s.BlocksWritten() }

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.blocksRead.Store(0)
	s.blocksWritten.Store(0)
	s.bytesRead.Store(0)
	s.bytesWritten.Store(0)
}

// Add merges other into s.
func (s *Stats) Add(other *Stats) {
	s.blocksRead.Add(other.BlocksRead())
	s.blocksWritten.Add(other.BlocksWritten())
	s.bytesRead.Add(other.BytesRead())
	s.bytesWritten.Add(other.BytesWritten())
}

// blockPool recycles block-size buffers — the pages of memory-backed
// files, the write page of every file and the page buffer of every spill
// reader — across files, stores and statements: a store lives for one
// chain, and the next chain's first spill would otherwise allocate every
// page again. Buffers sit in a sync.Pool, so an idle process gives them
// back to the GC; they go in as *byte (the block size is the pool's), which
// an interface holds without allocating.
type blockPool struct {
	size int
	pool sync.Pool
}

var (
	poolsMu sync.Mutex
	pools   = map[int]*blockPool{}

	poolAllocated atomic.Int64
	poolHeld      atomic.Int64
)

// poolFor returns the process-wide pool of size-byte blocks.
func poolFor(size int) *blockPool {
	poolsMu.Lock()
	defer poolsMu.Unlock()
	p := pools[size]
	if p == nil {
		p = &blockPool{size: size}
		pools[size] = p
	}
	return p
}

func (p *blockPool) get() []byte {
	poolHeld.Add(1)
	if b, ok := p.pool.Get().(*byte); ok {
		return unsafe.Slice(b, p.size)[:0]
	}
	poolAllocated.Add(1)
	return make([]byte, 0, p.size)
}

func (p *blockPool) put(b []byte) {
	if cap(b) != p.size {
		return
	}
	poolHeld.Add(-1)
	p.pool.Put(unsafe.SliceData(b))
}

// PoolCounters reports the block pool's traffic since the process started:
// the blocks it had to allocate because none was free, and the blocks
// currently out — taken by a file or a reader and not yet handed back.
func PoolCounters() (allocated, held int64) {
	return poolAllocated.Load(), poolHeld.Load()
}

// Store creates spill files over one backend with shared accounting. A
// store serves one chain, whose operators run on one goroutine: its files
// may be read concurrently once sealed, but only one goroutine writes.
type Store struct {
	blockSize int
	stats     *Stats
	dir       string // non-empty ⇒ file-backed
	blocks    *blockPool
	scratch   []byte
}

// NewMem returns a memory-backed store. stats may be nil.
func NewMem(blockSize int, stats *Stats) *Store {
	return newStore(blockSize, stats, "")
}

// NewFileBacked returns a store whose spill files live as temp files in dir
// (or the OS temp dir when dir is empty).
func NewFileBacked(dir string, blockSize int, stats *Stats) *Store {
	if dir == "" {
		dir = os.TempDir()
	}
	return newStore(blockSize, stats, dir)
}

func newStore(blockSize int, stats *Stats, dir string) *Store {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if stats == nil {
		stats = &Stats{}
	}
	return &Store{blockSize: blockSize, stats: stats, dir: dir, blocks: poolFor(blockSize)}
}

// BlockSize returns the page size in bytes.
func (s *Store) BlockSize() int { return s.blockSize }

// Stats returns the shared counters.
func (s *Store) Stats() *Stats { return s.stats }

// Block returns an empty buffer with one block of capacity from the pool
// every store of this block size shares. Hand it back with Recycle.
func (s *Store) Block() []byte { return s.blocks.get() }

// Recycle hands b, which came from Block and is not referenced anywhere
// else, back to the pool. A buffer of any other capacity is ignored.
func (s *Store) Recycle(b []byte) { s.blocks.put(b) }

// Scratch returns the store's one encode buffer, which every writer of its
// files shares: a writer encodes a record into it, grown as it needs, and
// Writes it to its file before any other writer touches it. It is the
// store's, not the block pool's, so a store with hundreds of open writers
// holds one record's bytes, not a page per writer outside the budget.
func (s *Store) Scratch() *[]byte { return &s.scratch }

// Create opens a fresh spill file for sequential writing.
func (s *Store) Create() (*File, error) {
	f := &File{store: s}
	if s.dir != "" {
		osf, err := os.CreateTemp(s.dir, "windowdb-spill-*")
		if err != nil {
			return nil, fmt.Errorf("pagestore: create spill: %w", err)
		}
		f.osf = osf
	}
	return f, nil
}

// File is a spill file: write sequentially, Seal, then read via one or more
// independent Readers. Not safe for concurrent writers; readers are
// independent and may run concurrently after Seal.
type File struct {
	store  *Store
	pages  [][]byte // memory backend payload: full pages, the last possibly short
	osf    *os.File // file backend handle (nil for memory)
	size   int64
	sealed bool
	// wbuf is the current partial page. On the memory backend it is the
	// page itself: flushing moves it into pages and the next write takes
	// a new one, so payload bytes are copied once, by Write.
	wbuf []byte
}

// Store returns the store the file lives in.
func (f *File) Store() *Store { return f.store }

// Write appends payload bytes, flushing full pages with accounting.
func (f *File) Write(p []byte) (int, error) {
	if f.sealed {
		return 0, fmt.Errorf("pagestore: write after Seal")
	}
	n := len(p)
	bs := f.store.blockSize
	for len(p) > 0 {
		if f.wbuf == nil {
			f.wbuf = f.store.Block()
		}
		room := bs - len(f.wbuf)
		take := room
		if take > len(p) {
			take = len(p)
		}
		f.wbuf = append(f.wbuf, p[:take]...)
		p = p[take:]
		if len(f.wbuf) == bs {
			if err := f.flushPage(); err != nil {
				return 0, err
			}
		}
	}
	return n, nil
}

func (f *File) flushPage() error {
	if len(f.wbuf) == 0 {
		return nil
	}
	f.store.stats.blocksWritten.Add(1)
	f.store.stats.bytesWritten.Add(int64(len(f.wbuf)))
	if f.osf != nil {
		if _, err := f.osf.Write(f.wbuf); err != nil {
			return fmt.Errorf("pagestore: flush: %w", err)
		}
		f.size += int64(len(f.wbuf))
		f.wbuf = f.wbuf[:0]
		return nil
	}
	f.pages = append(f.pages, f.wbuf)
	f.size += int64(len(f.wbuf))
	f.wbuf = nil
	return nil
}

// Seal flushes the final partial page and makes the file readable.
func (f *File) Seal() error {
	if f.sealed {
		return nil
	}
	if err := f.flushPage(); err != nil {
		return err
	}
	if f.wbuf != nil { // the file backend's write page
		f.store.Recycle(f.wbuf)
		f.wbuf = nil
	}
	f.sealed = true
	return nil
}

// Size returns payload bytes written (valid after Seal).
func (f *File) Size() int64 { return f.size }

// Blocks returns the number of pages the file occupies.
func (f *File) Blocks() int64 {
	bs := int64(f.store.blockSize)
	return (f.size + bs - 1) / bs
}

// Release frees backing resources, sealed or not: the pages (and the write
// page of a file abandoned before Seal) go back to the block pool, a temp
// file is removed. Readers must be finished. Releasing twice is harmless.
func (f *File) Release() {
	for _, p := range f.pages {
		f.store.Recycle(p)
	}
	f.pages = nil
	if f.wbuf != nil {
		f.store.Recycle(f.wbuf)
		f.wbuf = nil
	}
	if f.osf != nil {
		name := f.osf.Name()
		f.osf.Close()
		os.Remove(name)
		f.osf = nil
	}
}

// NewReader returns an independent sequential reader over the sealed file.
func (f *File) NewReader() (*Reader, error) {
	if !f.sealed {
		return nil, fmt.Errorf("pagestore: NewReader before Seal")
	}
	return &Reader{f: f}, nil
}

// Reader reads a sealed File sequentially, counting one block read per page
// it consumes.
type Reader struct {
	f          *File
	off        int64
	pagesRead  int64
	fileHandle *os.File
}

// Read implements io.Reader with page-granular accounting.
func (r *Reader) Read(p []byte) (int, error) {
	f := r.f
	if r.off >= f.size {
		return 0, io.EOF
	}
	// Bound the read to the remaining payload.
	remain := f.size - r.off
	if int64(len(p)) > remain {
		p = p[:remain]
	}
	var n int
	bs := int64(f.store.blockSize)
	if f.osf != nil {
		if r.fileHandle == nil {
			h, err := os.Open(f.osf.Name())
			if err != nil {
				return 0, fmt.Errorf("pagestore: reopen spill: %w", err)
			}
			r.fileHandle = h
		}
		m, err := r.fileHandle.ReadAt(p, r.off)
		if err != nil && err != io.EOF {
			return m, err
		}
		n = m
	} else {
		if f.pages == nil {
			return 0, fmt.Errorf("pagestore: read after Release")
		}
		for n < len(p) {
			at := r.off + int64(n)
			n += copy(p[n:], f.pages[at/bs][at%bs:])
		}
	}
	if n == 0 {
		return 0, io.EOF
	}
	// Account pages crossed by this read.
	firstPage := r.off / bs
	lastPage := (r.off + int64(n) - 1) / bs
	newPages := lastPage - firstPage + 1
	if r.pagesRead > 0 && firstPage == (r.off-1)/bs {
		// The first page of this read was already counted by the previous
		// read that ended inside it.
		newPages--
	}
	if newPages > 0 {
		f.store.stats.blocksRead.Add(newPages)
		r.pagesRead += newPages
	}
	f.store.stats.bytesRead.Add(int64(n))
	r.off += int64(n)
	return n, nil
}

// Close releases the reader's OS handle (memory backend: no-op).
func (r *Reader) Close() error {
	if r.fileHandle != nil {
		err := r.fileHandle.Close()
		r.fileHandle = nil
		return err
	}
	return nil
}
