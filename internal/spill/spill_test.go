package spill

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pagestore"
	"repro/internal/storage"
)

func TestRoundTrip(t *testing.T) {
	store := pagestore.NewMem(256, nil)
	w, err := NewWriter(store)
	if err != nil {
		t.Fatal(err)
	}
	var want []storage.Tuple
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		tu := storage.Tuple{
			storage.Int(rng.Int63()),
			storage.StringVal("payload"),
			storage.Null,
		}
		want = append(want, tu)
		if err := w.Write(tu); err != nil {
			t.Fatal(err)
		}
	}
	f, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	for i := 0; ; i++ {
		tu, ok, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != len(want) {
				t.Fatalf("read %d tuples, want %d", i, len(want))
			}
			break
		}
		for c := range want[i] {
			if !storage.Equal(tu[c], want[i][c]) {
				t.Fatalf("tuple %d col %d mismatch", i, c)
			}
		}
	}
}

// TestLargeTuplesCrossPages — tuples wider than a page force the reader's
// buffer-growth path.
func TestLargeTuplesCrossPages(t *testing.T) {
	store := pagestore.NewMem(64, nil) // tiny pages
	w, _ := NewWriter(store)
	big := make([]byte, 1000)
	for i := range big {
		big[i] = byte(i)
	}
	for i := 0; i < 10; i++ {
		if err := w.Write(storage.Tuple{storage.StringVal(string(big)), storage.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	f, _ := w.Finish()
	rd, _ := NewReader(f)
	defer rd.Close()
	count := 0
	for {
		tu, ok, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if tu[1].Int64() != int64(count) {
			t.Fatalf("tuple %d out of order", count)
		}
		count++
	}
	if count != 10 {
		t.Fatalf("read %d of 10", count)
	}
}

func TestEmptyFile(t *testing.T) {
	store := pagestore.NewMem(128, nil)
	w, _ := NewWriter(store)
	f, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rd, _ := NewReader(f)
	defer rd.Close()
	if _, ok, err := rd.Next(); ok || err != nil {
		t.Fatalf("empty file: ok=%v err=%v", ok, err)
	}
}

// TestTruncatedFileIsCorrupt — a file that ends inside a tuple reads as
// ErrCorrupt once the reader has nothing left to refill from, after every
// whole tuple before it.
func TestTruncatedFileIsCorrupt(t *testing.T) {
	store := pagestore.NewMem(64, nil)
	f, err := store.Create()
	if err != nil {
		t.Fatal(err)
	}
	whole := storage.Tuple{storage.Int(7), storage.StringVal("a string longer than one page of this store")}
	enc := storage.AppendTuple(nil, whole)
	enc = storage.AppendTuple(enc, whole)
	if _, err := f.Write(enc[:len(enc)-1]); err != nil {
		t.Fatal(err)
	}
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if tu, ok, err := rd.Next(); !ok || err != nil || !storage.Identical(tu[1], whole[1]) {
		t.Fatalf("first tuple: %v ok=%v err=%v", tu, ok, err)
	}
	if _, ok, err := rd.Next(); ok || !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("truncated tuple: ok=%v err=%v, want ErrCorrupt", ok, err)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	err := quick.Check(func(seed int64, n uint8, blockExp uint8) bool {
		store := pagestore.NewMem(64<<(blockExp%5), nil)
		w, err := NewWriter(store)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		count := int(n%200) + 1
		sum := int64(0)
		for i := 0; i < count; i++ {
			v := rng.Int63n(1 << 30)
			sum += v
			if err := w.Write(storage.Tuple{storage.Int(v)}); err != nil {
				return false
			}
		}
		f, err := w.Finish()
		if err != nil {
			return false
		}
		rd, err := NewReader(f)
		if err != nil {
			return false
		}
		defer rd.Close()
		got := int64(0)
		read := 0
		for {
			tu, ok, err := rd.Next()
			if err != nil {
				return false
			}
			if !ok {
				break
			}
			got += tu[0].Int64()
			read++
		}
		return read == count && got == sum
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

// TestWritesShareTheStoresBuffer — after a store's first tuple, no write
// allocates, not even a new writer's first: every writer of the store
// encodes into its one scratch buffer (the pages come from the block pool,
// warmed here).
func TestWritesShareTheStoresBuffer(t *testing.T) {
	const blockSize, writers = 256, 100
	store := pagestore.NewMem(blockSize, nil)
	for _, b := range func() (pages [][]byte) {
		for range 2 * writers {
			pages = append(pages, store.Block())
		}
		return pages
	}() {
		store.Recycle(b)
	}
	ws := make([]Writer, writers+1)
	for i := range ws {
		w, err := NewWriter(store)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	tu := storage.Tuple{storage.Int(1 << 40), storage.StringVal("a string of a few dozen bytes, spilled"), storage.Float(0.5)}
	i := 0
	// AllocsPerRun's first call, writers[0]'s first tuple, is the store's.
	if n := testing.AllocsPerRun(writers, func() {
		if err := ws[i].Write(tu); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Fatalf("a writer's first tuple allocates %v objects after the store's first", n)
	}
	for _, w := range ws {
		w.Abort()
	}
}

// TestReadsIntoAWarmArenaAllocateNothing — reading a multi-page file,
// strings and all, into a pooled arena that took back the slabs an earlier
// read recycled allocates nothing: not per tuple, not per page, not per
// string.
func TestReadsIntoAWarmArenaAllocateNothing(t *testing.T) {
	const blockSize, n, reads = 256, 500, 5
	store := pagestore.NewMem(blockSize, nil)
	w, err := NewWriter(store)
	if err != nil {
		t.Fatal(err)
	}
	pads := make([]string, 97)
	for i := range pads {
		pads[i] = fmt.Sprintf("pad %03d", i)
	}
	for i := 0; i < n; i++ {
		if err := w.Write(storage.Tuple{storage.Int(int64(i)), storage.StringVal(pads[i%len(pads)]), storage.Null}); err != nil {
			t.Fatal(err)
		}
	}
	f, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	if f.Blocks() < 10 {
		t.Fatalf("the file is %d pages, want a multi-page file", f.Blocks())
	}
	arena := storage.NewPooledTupleArena(3)
	rds := make([]Reader, reads+1)
	for i := range rds {
		if err := rds[i].Open(f, arena); err != nil {
			t.Fatal(err)
		}
		defer rds[i].Close()
	}
	read := 0
	// AllocsPerRun's first call carves the slabs its Recycle hands back.
	allocs := testing.AllocsPerRun(reads, func() {
		rd := &rds[read]
		for i := 0; ; i++ {
			tu, ok, err := rd.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if tu[0].Int64() != int64(i) || tu[1].Str() != pads[i%len(pads)] {
				t.Fatalf("read %d: tuple %v", read, tu)
			}
		}
		arena.Recycle()
		read++
	})
	if allocs != 0 {
		t.Fatalf("reading %d tuples into a warm arena allocates %v objects", n, allocs)
	}
}

// TestArenaReadersShareOneArena — the readers of one merge decode into one
// arena: rows come out with its row capacity, interleaved reads keep
// every row intact when its neighbours are extended, and each reader
// buffers one page (the merge-order arithmetic budgets one per run), not a
// fixed 64 KiB.
func TestArenaReadersShareOneArena(t *testing.T) {
	const blockSize, perFile, spare = 256, 300, 3
	store := pagestore.NewMem(blockSize, nil)
	row := func(file, i int) storage.Tuple {
		return storage.Tuple{storage.Int(int64(file)), storage.Int(int64(i)), storage.StringVal("pad-pad-pad-pad")}
	}
	arena := storage.NewTupleArena(3 + spare)
	var readers []*Reader
	for file := 0; file < 3; file++ {
		w, err := NewWriter(store)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perFile; i++ {
			if err := w.Write(row(file, i)); err != nil {
				t.Fatal(err)
			}
		}
		f, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		rd := new(Reader)
		if err := rd.Open(f, arena); err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		if cap(rd.buf) != blockSize {
			t.Fatalf("read buffer is %d bytes, want one %d-byte page", cap(rd.buf), blockSize)
		}
		readers = append(readers, rd)
	}
	var got []storage.Tuple
	for i := 0; i < perFile; i++ {
		for _, rd := range readers {
			tu, ok, err := rd.Next()
			if err != nil || !ok {
				t.Fatalf("row %d: ok=%v err=%v", i, ok, err)
			}
			if len(tu) != 3 || cap(tu) != 3+spare {
				t.Fatalf("row len %d cap %d, want 3 and %d", len(tu), cap(tu), 3+spare)
			}
			for k := 0; k < spare; k++ {
				tu = tu.Extend(storage.Int(int64(-k)))
			}
			got = append(got, tu)
		}
	}
	for n, tu := range got {
		want := append(row(n%3, n/3), storage.Int(0), storage.Int(-1), storage.Int(-2))
		for c := range want {
			if !storage.Identical(tu[c], want[c]) {
				t.Fatalf("row %d col %d = %q, want %q", n, c, tu[c], want[c])
			}
		}
	}
}
