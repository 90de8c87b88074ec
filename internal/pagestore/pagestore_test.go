package pagestore

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

func TestWriteReadAccounting(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			stats := &Stats{}
			var store *Store
			if backend == "mem" {
				store = NewMem(1024, stats)
			} else {
				store = NewFileBacked(t.TempDir(), 1024, stats)
			}
			f, err := store.Create()
			if err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, 2500) // 2.44 pages
			for i := range payload {
				payload[i] = byte(i)
			}
			if _, err := f.Write(payload); err != nil {
				t.Fatal(err)
			}
			if err := f.Seal(); err != nil {
				t.Fatal(err)
			}
			if got := stats.BlocksWritten(); got != 3 {
				t.Errorf("BlocksWritten = %d, want 3 (2 full + 1 partial page)", got)
			}
			if f.Blocks() != 3 || f.Size() != 2500 {
				t.Errorf("Blocks=%d Size=%d", f.Blocks(), f.Size())
			}

			rd, err := newReader(f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(rd)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("read back %d bytes, mismatch", len(got))
			}
			if r := stats.BlocksRead(); r != 3 {
				t.Errorf("BlocksRead = %d, want 3", r)
			}
			rd.Close()
			f.Release()
		})
	}
}

func TestReaderSmallReadsCountPagesOnce(t *testing.T) {
	stats := &Stats{}
	store := NewMem(100, stats)
	f, _ := store.Create()
	data := make([]byte, 1000) // 10 pages
	f.Write(data)
	f.Seal()
	stats.Reset()
	rd, _ := newReader(f)
	buf := make([]byte, 7) // many tiny reads inside each page
	for {
		_, err := rd.Read(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := stats.BlocksRead(); got != 10 {
		t.Errorf("BlocksRead = %d, want 10 (each page charged once)", got)
	}
}

func TestIndependentReaders(t *testing.T) {
	stats := &Stats{}
	store := NewMem(64, stats)
	f, _ := store.Create()
	f.Write([]byte("hello world, this is spill data"))
	f.Seal()
	r1, _ := newReader(f)
	r2, _ := newReader(f)
	b1, _ := io.ReadAll(r1)
	b2, _ := io.ReadAll(r2)
	if !bytes.Equal(b1, b2) {
		t.Errorf("independent readers disagree")
	}
}

func TestWriteAfterSeal(t *testing.T) {
	store := NewMem(64, nil)
	f, _ := store.Create()
	f.Seal()
	if _, err := f.Write([]byte("x")); err == nil {
		t.Errorf("write after Seal should fail")
	}
	if _, err := newReader(f); err != nil {
		t.Errorf("reader on sealed empty file should work: %v", err)
	}
}

func TestReaderBeforeSeal(t *testing.T) {
	store := NewMem(64, nil)
	f, _ := store.Create()
	if _, err := newReader(f); err == nil {
		t.Errorf("a reader opened before Seal should fail")
	}
}

func TestStatsAccumulateAcrossFiles(t *testing.T) {
	stats := &Stats{}
	store := NewMem(128, stats)
	rng := rand.New(rand.NewSource(3))
	totalWritten := int64(0)
	for i := 0; i < 20; i++ {
		f, _ := store.Create()
		n := rng.Intn(1000) + 1
		f.Write(make([]byte, n))
		f.Seal()
		totalWritten += (int64(n) + 127) / 128
	}
	if got := stats.BlocksWritten(); got != totalWritten {
		t.Errorf("BlocksWritten = %d, want %d", got, totalWritten)
	}
	if stats.BytesWritten() == 0 || stats.BlocksRead() != 0 {
		t.Errorf("unexpected byte/read counters")
	}
	other := &Stats{}
	other.Add(stats)
	if other.TotalBlocks() != stats.TotalBlocks() {
		t.Errorf("Add/TotalBlocks mismatch")
	}
	stats.Reset()
	if stats.TotalBlocks() != 0 {
		t.Errorf("Reset failed")
	}
}

// TestReleasedPagesAreReused — a released file's pages go back to the
// block pool, which the next file takes them from — in this store or in the
// next one of the same block size: the second file allocates next to
// nothing, reads back its own bytes, and a file still open is not disturbed
// by its neighbour's release. Accounting is per page written and read, as
// without reuse.
func TestReleasedPagesAreReused(t *testing.T) {
	stats := &Stats{}
	store := NewMem(128, stats)
	fill := func(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }
	write := func(payload []byte) *File {
		f, err := store.Create()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := f.Seal(); err != nil {
			t.Fatal(err)
		}
		return f
	}
	read := func(f *File) []byte {
		rd, err := newReader(f)
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		got, err := io.ReadAll(rd)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	kept := write(fill('k', 300))
	first := write(fill('a', 8192)) // 64 pages
	if !bytes.Equal(read(first), fill('a', 8192)) {
		t.Fatal("first file read back wrong")
	}
	stale, err := newReader(first)
	if err != nil {
		t.Fatal(err)
	}
	_, held := PoolCounters()
	first.Release()
	first.Release() // harmless
	if _, err := stale.Read(make([]byte, 8)); err == nil || err == io.EOF {
		t.Fatalf("read after Release: err = %v, want an error", err)
	}
	if _, after := PoolCounters(); held-after != 64 {
		t.Fatalf("releasing 64 pages handed %d back to the pool", held-after)
	}
	store = NewMem(128, stats) // the pool is the process's, not the store's
	var (
		second *File
		made   int64
	)
	cycle := func() {
		before, _ := PoolCounters()
		if second != nil {
			second.Release()
		}
		second = write(fill('b', 8000)) // 63 pages
		after, _ := PoolCounters()
		made = after - before
	}
	// The GC, which empties the block pool, is held off, and two cycles
	// run before the one measured (the first is AllocsPerRun's warm-up), so
	// the pool has rebuilt its own bookkeeping and the File and its page
	// index are the store's. Left are the payload and the byte it repeats
	// (and one object more under the race detector), and no page: each is
	// one the previous cycle released. The race detector drops a quarter
	// of a sync.Pool's puts at random, so there about 16 pages are new;
	// half of them, 31, is four standard deviations above that.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC() // finishes a cycle already under way
	cycle()
	bound, maxMade := 2.0, int64(0)
	if raceEnabled {
		bound, maxMade = bound+1, 63/2
	}
	if n := testing.AllocsPerRun(1, cycle); n-float64(made) > bound {
		t.Errorf("writing into released pages allocated %v objects besides %d pages", n-float64(made), made)
	}
	if made > maxMade {
		t.Errorf("writing 63 pages after releasing 63 made %d new pages, want at most %d", made, maxMade)
	}
	if !bytes.Equal(read(second), fill('b', 8000)) {
		t.Fatal("second file read back the first file's bytes")
	}
	if !bytes.Equal(read(kept), fill('k', 300)) {
		t.Fatal("an open file changed when another was released")
	}
	// kept 3 pages, first 64, second 63 written three times (two warm-ups).
	if w := stats.BlocksWritten(); w != 3+64+3*63 {
		t.Errorf("BlocksWritten = %d, want 256", w)
	}
	if r := stats.BlocksRead(); r != 64+63+3 {
		t.Errorf("BlocksRead = %d, want 130", r)
	}
}

// newReader opens a reader on f.
func newReader(f *File) (*Reader, error) {
	rd := new(Reader)
	return rd, rd.Open(f)
}

// TestFailAt — the fault seam fails exactly the k-th Create and the k-th
// page write from when it is set, on either backend, with an error wrapping
// ErrInjected, and only once: the store works on afterwards.
func TestFailAt(t *testing.T) {
	for _, store := range []*Store{NewMem(512, nil), NewFileBacked(t.TempDir(), 512, nil)} {
		store.FailAt(2, 0)
		f, err := store.Create()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.Create(); !errors.Is(err, ErrInjected) {
			t.Fatalf("second Create: %v, want the injected fault", err)
		}
		store.FailAt(0, 3)
		page := make([]byte, 512)
		for i := 1; i <= 4; i++ {
			if _, err := f.Write(page); errors.Is(err, ErrInjected) != (i == 3) {
				t.Fatalf("page write %d: %v", i, err)
			}
		}
		f.Release()
		if g, err := store.Create(); err != nil {
			t.Fatalf("Create after the faults: %v", err)
		} else {
			g.Release()
		}
	}
}
