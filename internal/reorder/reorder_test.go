package reorder

import (
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/attrs"
	"repro/internal/core"
	"repro/internal/pagestore"
	"repro/internal/spill"
	"repro/internal/storage"
	"repro/internal/stream"
)

func testConfig(memBytes int) (Config, *pagestore.Stats) {
	stats := &pagestore.Stats{}
	return Config{
		MemoryBytes: memBytes,
		Store:       pagestore.NewMem(512, stats),
	}, stats
}

func randTable(rng *rand.Rand, n int, domains ...int) []storage.Tuple {
	rows := make([]storage.Tuple, n)
	for i := range rows {
		row := make(storage.Tuple, len(domains)+1)
		for c, d := range domains {
			row[c] = storage.Int(rng.Int63n(int64(d)))
		}
		row[len(domains)] = storage.Int(int64(i)) // unique tag
		rows[i] = row
	}
	return rows
}

func tagMultisetEqual(t *testing.T, got, want []storage.Tuple, tagCol int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row count %d != %d", len(got), len(want))
	}
	seen := map[int64]int{}
	for _, r := range want {
		seen[r[tagCol].Int64()]++
	}
	for _, r := range got {
		seen[r[tagCol].Int64()]--
	}
	for tag, c := range seen {
		if c != 0 {
			t.Fatalf("tag %d count mismatch %d", tag, c)
		}
	}
}

// verifyMatches checks the physical Definition 1/2 properties of a segmented
// stream against a window function: segments pairwise disjoint on X, each
// segment sorted on →WPK ∘ WOK for some fixed permutation, and WPK-groups
// wholly inside segments.
func verifyMatches(t *testing.T, segs [][]storage.Tuple, x attrs.Set, sortKey attrs.Seq) {
	t.Helper()
	// X-disjointness across segments.
	seenX := map[string]int{}
	for si, seg := range segs {
		for _, row := range seg {
			key := string(storage.AppendTuple(nil, projectTuple(row, x.IDs())))
			if prev, ok := seenX[key]; ok && prev != si {
				t.Fatalf("X value %v appears in segments %d and %d", key, prev, si)
			}
			seenX[key] = si
		}
		if !storage.SortedOn(seg, sortKey) {
			t.Fatalf("segment %d not sorted on %s", si, sortKey)
		}
	}
}

func projectTuple(row storage.Tuple, ids []attrs.ID) storage.Tuple {
	out := make(storage.Tuple, len(ids))
	for i, id := range ids {
		out[i] = row[id]
	}
	return out
}

func TestFullSortBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := randTable(rng, 3000, 20, 20)
	cfg, stats := testConfig(2048)
	key := attrs.AscSeq(0, 1)
	out, fsStats, err := FullSort(stream.FromTuples(rows), key, cfg)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := stream.Segments(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("FS output has %d segments, want 1", len(segs))
	}
	if !storage.SortedOn(segs[0], key) {
		t.Fatalf("FS output not sorted")
	}
	tagMultisetEqual(t, segs[0], rows, 2)
	if fsStats.Sort.InMemory || stats.TotalBlocks() == 0 {
		t.Errorf("expected external sort under small budget")
	}
}

// TestFullSortInPlace — a Full Sort over a chain's own array is the sort it
// is over any other input, minus the buffer: at a budget that spills and at
// one that does not, it counts the same runs, passes, comparisons and
// blocks and emits the same sequence as the sort that buffers a read-only
// stream. In memory its output is the array itself; the read-only input is
// never written.
func TestFullSortInPlace(t *testing.T) {
	rows := randTable(rand.New(rand.NewSource(4)), 2000, 7, 11)
	key := attrs.AscSeq(0, 1)
	for _, mem := range []int{0, 2048} {
		sortOver := func(in stream.Stream) ([]storage.Tuple, FSStats, int64) {
			cfg, stats := testConfig(mem)
			cfg.Comparisons = new(int64)
			out, st, err := FullSort(in, key, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sorted, _ := stream.BackingTuples(out)
			return sorted, st, stats.TotalBlocks()
		}
		readOnly := slices.Clone(rows)
		want, wantStats, wantBlocks := sortOver(stream.FromTuples(readOnly))
		array := slices.Clone(rows)
		got, gotStats, gotBlocks := sortOver(stream.FromArray(array, nil))
		if gotStats != wantStats || gotBlocks != wantBlocks || gotStats.Sort.InMemory != (mem == 0) {
			t.Fatalf("M = %d: in place %+v and %d blocks, buffered %+v and %d blocks", mem, gotStats, gotBlocks, wantStats, wantBlocks)
		}
		for i := range want {
			if len(got) != len(want) || got[i][2].Int64() != want[i][2].Int64() {
				t.Fatalf("M = %d: the sequences differ at row %d of %d and %d", mem, i, len(got), len(want))
			}
		}
		if mem == 0 && &got[0] != &array[0] {
			t.Fatal("the in-memory sort of the array is not the array")
		}
		for i, row := range readOnly {
			if &row[0] != &rows[i][0] {
				t.Fatalf("M = %d: the read-only input was permuted at row %d", mem, i)
			}
		}
	}
}

func TestHashedSortMatchesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rows := randTable(rng, 4000, 50, 30)
	wfKey := attrs.AscSeq(0, 1) // →WPK ∘ WOK with WPK = {0}, WOK = (1)
	for _, buckets := range []int{1, 4, 16, 64} {
		cfg, _ := testConfig(4096)
		out, hsStats, err := HashedSort(stream.FromTuples(rows), HSOptions{
			HashKey: []attrs.ID{0},
			SortKey: wfKey,
			Buckets: buckets,
		}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		segs, err := stream.Segments(out)
		if err != nil {
			t.Fatal(err)
		}
		var flat []storage.Tuple
		for _, s := range segs {
			flat = append(flat, s...)
		}
		tagMultisetEqual(t, flat, rows, 2)
		verifyMatches(t, segs, attrs.MakeSet(0), wfKey)
		if hsStats.InputTuples != len(rows) {
			t.Errorf("InputTuples = %d", hsStats.InputTuples)
		}
		if len(segs) > buckets {
			t.Errorf("%d segments from %d buckets", len(segs), buckets)
		}
	}
}

func TestHashedSortSpills(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := randTable(rng, 5000, 100, 10)
	cfg, stats := testConfig(2048) // tiny budget: most buckets must spill
	out, hsStats, err := HashedSort(stream.FromTuples(rows), HSOptions{
		HashKey: []attrs.ID{0},
		SortKey: attrs.AscSeq(0, 1),
		Buckets: 32,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := stream.CollectTuples(out)
	if err != nil {
		t.Fatal(err)
	}
	tagMultisetEqual(t, tuples, rows, 2)
	if hsStats.SpilledBuckets == 0 {
		t.Errorf("expected spilled buckets under a tiny budget: %+v", hsStats)
	}
	if stats.BlocksWritten() == 0 || stats.BlocksRead() == 0 {
		t.Errorf("expected partition I/O, got %d/%d", stats.BlocksWritten(), stats.BlocksRead())
	}
}

// TestHashedSortFlushesLargestBucket — when a row does not fit, HS flushes
// the largest resident bucket (the N′ term of Eq. 2 assumes it): with a
// 10-row bucket 0 and a 30-row bucket 1 and room for 39 rows, the last row
// flushes bucket 1 alone, and bucket 0 stays resident and is emitted first.
func TestHashedSortFlushesLargestBucket(t *testing.T) {
	key := []attrs.ID{0}
	var small, large int64 = -1, -1 // a key value hashing to bucket 0, one to bucket 1
	for v := int64(0); small < 0 || large < 0; v++ {
		if storage.HashKeyFNV(storage.Tuple{storage.Int(v)}, key)%2 == 0 {
			small = max(small, v)
		} else {
			large = max(large, v)
		}
	}
	var rows, largeRows []storage.Tuple
	for i := 0; i < 40; i++ {
		v := small
		if i >= 10 {
			v = large
		}
		rows = append(rows, storage.Tuple{storage.Int(v), storage.Int(int64(i))})
		if v == large {
			largeRows = append(largeRows, rows[i])
		}
	}
	cfg, stats := testConfig(39 * rows[0].Size())
	out, st, err := HashedSort(stream.FromTuples(rows), HSOptions{HashKey: key, SortKey: attrs.AscSeq(0, 1), Buckets: 2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := stream.Segments(out)
	if err != nil {
		t.Fatal(err)
	}
	if st.SpilledBuckets != 1 || st.MemoryResident != 1 {
		t.Fatalf("%+v: want one bucket flushed and one resident", st)
	}
	if len(segs) != 2 || len(segs[0]) != 10 || segs[0][0][0].Int64() != small || len(segs[1]) != 30 || segs[1][0][0].Int64() != large {
		t.Fatalf("emitted %d segments, want the 10-row bucket (resident) and then the 30-row one (flushed)", len(segs))
	}
	// What went to disk is the large bucket's rows, and only those.
	want, wantStats := testConfig(0)
	w, err := spill.NewWriter(want.Store)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range largeRows {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	f, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	if stats.BlocksWritten() != wantStats.BlocksWritten() {
		t.Errorf("HS wrote %d blocks, the large bucket's rows take %d", stats.BlocksWritten(), wantStats.BlocksWritten())
	}
}

func TestSegmentedSortAlphaGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := randTable(rng, 3000, 15, 40, 40)
	// Input: totally ordered on (0,1) — R∅,(0,1).
	cfg, _ := testConfig(1 << 20)
	sorted, _, err := FullSort(stream.FromTuples(rows), attrs.AscSeq(0, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// SS to match wf = ({0}, (2)): α = (0), β = (2).
	cfg2, stats2 := testConfig(1 << 20)
	out, ssStats, err := SegmentedSort(sorted, SSOptions{
		Alpha: attrs.AscSeq(0),
		Beta:  attrs.AscSeq(2),
	}, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := stream.Segments(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("SS must preserve segment structure: got %d segments", len(segs))
	}
	if !storage.SortedOn(segs[0], attrs.AscSeq(0, 2)) {
		t.Fatalf("SS output not ordered on (0,2)")
	}
	tagMultisetEqual(t, segs[0], rows, 3)
	if ssStats.Units < 10 || ssStats.Units > 15 {
		t.Errorf("units = %d, want ≈ D(col0) = 15", ssStats.Units)
	}
	if stats2.TotalBlocks() != 0 {
		t.Errorf("SS spilled %d blocks despite ample memory", stats2.TotalBlocks())
	}
}

func TestSegmentedSortEmptyAlphaOnSegments(t *testing.T) {
	// Segmented input (one segment per col-0 value), SS with empty α sorts
	// whole segments on β — the X ≠ ∅, α = ε case.
	rng := rand.New(rand.NewSource(6))
	rows := randTable(rng, 2000, 8, 30)
	cfg, _ := testConfig(1 << 20)
	hs, _, err := HashedSort(stream.FromTuples(rows), HSOptions{
		HashKey: []attrs.ID{0}, SortKey: attrs.AscSeq(0, 1), Buckets: 8,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Reorder to match wf = ({0}, (2 DESC)) — wait, use ascending col 1→2.
	cfg2, _ := testConfig(1 << 20)
	out, ssStats, err := SegmentedSort(hs, SSOptions{
		Alpha: nil,
		Beta:  attrs.AscSeq(0, 1),
	}, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := stream.Segments(out)
	if err != nil {
		t.Fatal(err)
	}
	verifyMatches(t, segs, attrs.MakeSet(0), attrs.AscSeq(0, 1))
	if ssStats.Units != ssStats.Segments {
		t.Errorf("empty α: units (%d) should equal segments (%d)", ssStats.Units, ssStats.Segments)
	}
	var flat []storage.Tuple
	for _, s := range segs {
		flat = append(flat, s...)
	}
	tagMultisetEqual(t, flat, rows, 2)
}

// TestReorderEquivalence — FS, HS and SS all produce streams on which the
// window function sees identical partitions: the cornerstone observation of
// Section 3 (window partitions may arrive in any order).
func TestReorderEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := randTable(rng, 2500, 12, 25)
	wpk := attrs.MakeSet(0)
	key := attrs.AscSeq(0, 1)

	collectPartitions := func(segs [][]storage.Tuple) map[string][]int64 {
		parts := map[string][]int64{}
		for _, seg := range segs {
			for _, row := range seg {
				k := string(storage.AppendTuple(nil, projectTuple(row, wpk.IDs())))
				parts[k] = append(parts[k], row[2].Int64())
			}
		}
		return parts
	}

	cfg1, _ := testConfig(2048)
	fsOut, _, err := FullSort(stream.FromTuples(rows), key, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	fsSegs, _ := stream.Segments(fsOut)

	cfg2, _ := testConfig(2048)
	hsOut, _, err := HashedSort(stream.FromTuples(rows), HSOptions{HashKey: []attrs.ID{0}, SortKey: key, Buckets: 7}, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	hsSegs, _ := stream.Segments(hsOut)

	// SS path: pre-sort on (1) then segmented-sort α=ε… instead use sorted
	// on (0) then α=(0), β=(1).
	cfg3, _ := testConfig(1 << 20)
	pre, _, err := FullSort(stream.FromTuples(rows), attrs.AscSeq(0), cfg3)
	if err != nil {
		t.Fatal(err)
	}
	ssOut, _, err := SegmentedSort(pre, SSOptions{Alpha: attrs.AscSeq(0), Beta: attrs.AscSeq(1)}, cfg3)
	if err != nil {
		t.Fatal(err)
	}
	ssSegs, _ := stream.Segments(ssOut)

	fsParts := collectPartitions(fsSegs)
	for name, segs := range map[string][][]storage.Tuple{"HS": hsSegs, "SS": ssSegs} {
		got := collectPartitions(segs)
		if len(got) != len(fsParts) {
			t.Fatalf("%s: %d partitions vs FS %d", name, len(got), len(fsParts))
		}
		for k, want := range fsParts {
			gotPart := got[k]
			if len(gotPart) != len(want) {
				t.Fatalf("%s: partition %q size %d vs %d", name, k, len(gotPart), len(want))
			}
			// Same tuples in the same WOK order (ties may permute: compare
			// via sorted col-1 projection per tag).
		}
	}
}

// TestTheorem2Physical — evaluating SS after SS (the chained reorders of
// C1's cover sets) preserves segment structure and sortedness.
func TestChainedSegmentedSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rows := randTable(rng, 2000, 10, 20, 20)
	cfg, _ := testConfig(1 << 20)
	sorted, _, err := FullSort(stream.FromTuples(rows), attrs.AscSeq(0, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ss1, _, err := SegmentedSort(sorted, SSOptions{Alpha: attrs.AscSeq(0), Beta: attrs.AscSeq(2)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ss2, _, err := SegmentedSort(ss1, SSOptions{Alpha: attrs.AscSeq(0), Beta: attrs.AscSeq(1)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := stream.Segments(ss2)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || !storage.SortedOn(segs[0], attrs.AscSeq(0, 1)) {
		t.Fatalf("chained SS broke ordering")
	}
	tagMultisetEqual(t, segs[0], rows, 3)
}

func TestHashedSortRequiresKey(t *testing.T) {
	cfg, _ := testConfig(1024)
	if _, _, err := HashedSort(stream.FromTuples(nil), HSOptions{SortKey: attrs.AscSeq(0)}, cfg); err == nil {
		t.Errorf("HS without hash key should fail")
	}
}

func TestEmptyInputs(t *testing.T) {
	cfg, _ := testConfig(1024)
	out, _, err := FullSort(stream.FromTuples(nil), attrs.AscSeq(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rows, _ := stream.CollectTuples(out); len(rows) != 0 {
		t.Errorf("FS of empty input returned rows")
	}
	out, _, err = HashedSort(stream.FromTuples(nil), HSOptions{HashKey: []attrs.ID{0}, SortKey: attrs.AscSeq(0), Buckets: 4}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rows, _ := stream.CollectTuples(out); len(rows) != 0 {
		t.Errorf("HS of empty input returned rows")
	}
	ssOut, _, err := SegmentedSort(stream.FromTuples(nil), SSOptions{Beta: attrs.AscSeq(0)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rows, _ := stream.CollectTuples(ssOut); len(rows) != 0 {
		t.Errorf("SS of empty input returned rows")
	}
}

// TestBucketCountPolicy sanity-checks the shared bucket-count policy.
func TestBucketCountPolicy(t *testing.T) {
	if n := core.HSBucketCount(10, 100000, 10); n != 10 {
		t.Errorf("distinct-bounded count = %d, want 10", n)
	}
	if n := core.HSBucketCount(1_000_000, 8000, 48); n != 256 {
		t.Errorf("default count = %d, want 256 (min bound)", n)
	}
	if n := core.HSBucketCount(1_000_000, 10_000_000, 10); n != core.MaxHSBuckets {
		t.Errorf("count = %d, want cap %d", n, core.MaxHSBuckets)
	}
}

// sabotagedStream runs sabotage once, before handing out row number at.
type sabotagedStream struct {
	stream.Stream
	at, n    int
	sabotage func()
}

func (s *sabotagedStream) Next() (stream.Row, bool) {
	if s.n == s.at {
		s.sabotage()
	}
	s.n++
	return s.Stream.Next()
}

// TestHashedSortReleasesBucketsItDoesNotEmit — a Hashed Sort that fails in
// its build phase (the spill directory disappears under it, so the next
// bucket to flush cannot create its file), one whose output is closed after
// the first row and one read to its end all give up every bucket file they
// opened: the directory is empty and the pool has its blocks back. Each
// gives its work back too, with no row left in it.
func TestHashedSortReleasesBucketsItDoesNotEmit(t *testing.T) {
	rows := randTable(rand.New(rand.NewSource(3)), 5000, 100, 10)
	opt := HSOptions{HashKey: []attrs.ID{0}, SortKey: attrs.AscSeq(0, 1), Buckets: 32}
	_, idle := pagestore.PoolCounters()
	takeWorks()

	dir := t.TempDir()
	cfg := Config{MemoryBytes: 2048, Store: pagestore.NewFileBacked(dir, 512, nil)}
	in := &sabotagedStream{Stream: stream.FromTuples(rows), at: 40, sabotage: func() {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
	}}
	if _, st, err := HashedSort(in, opt, cfg); err == nil {
		t.Fatalf("build phase survived the loss of its spill directory: %+v", st)
	}
	if _, held := pagestore.PoolCounters(); held != idle {
		t.Fatalf("failed build phase: %d blocks not handed back", held-idle)
	}
	checkWorksIdle(t, 1)

	for _, drain := range []bool{false, true} {
		dir = t.TempDir()
		cfg.Store = pagestore.NewFileBacked(dir, 512, nil)
		out, st, err := HashedSort(stream.FromTuples(rows), opt, cfg)
		if err != nil || st.SpilledBuckets < 2 {
			t.Fatalf("err = %v, %d spilled buckets; want several", err, st.SpilledBuckets)
		}
		read := 0
		for _, ok := out.Next(); ok && (drain || read == 0); _, ok = out.Next() {
			read++
		}
		if drain != (read == len(rows)) {
			t.Fatalf("read %d of %d rows", read, len(rows))
		}
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Fatalf("drained %v: the stream left %d bucket files behind", drain, len(left))
		}
		if _, held := pagestore.PoolCounters(); held != idle {
			t.Fatalf("drained %v: %d blocks not handed back", drain, held-idle)
		}
		checkWorksIdle(t, 1)
	}
}

// TestSegmentedSortCloseClosesItsInput — a Segmented Sort abandoned after
// its first row closes its input: over a spilling Hashed Sort, the
// buckets it had not emitted give their files and pages back, and both
// operators their works.
func TestSegmentedSortCloseClosesItsInput(t *testing.T) {
	rows := randTable(rand.New(rand.NewSource(5)), 5000, 100, 10)
	cfg, _ := testConfig(2048)
	_, idle := pagestore.PoolCounters()
	takeWorks()
	hs, st, err := HashedSort(stream.FromTuples(rows), HSOptions{HashKey: []attrs.ID{0}, SortKey: attrs.AscSeq(0), Buckets: 32}, cfg)
	if err != nil || st.SpilledBuckets < 2 {
		t.Fatalf("err = %v, %d spilled buckets; want several", err, st.SpilledBuckets)
	}
	out, _, err := SegmentedSort(hs, SSOptions{Alpha: attrs.AscSeq(0), Beta: attrs.AscSeq(1)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out.Next(); !ok {
		t.Fatal("no first row")
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	if _, held := pagestore.PoolCounters(); held != idle {
		t.Fatalf("%d blocks not handed back", held-idle)
	}
	checkWorksIdle(t, min(2, runtime.GOMAXPROCS(0)))
	if err := out.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	checkWorksIdle(t, min(2, runtime.GOMAXPROCS(0)))
}

// takeWorks empties the free list of works, so a test counts what comes
// back to it.
func takeWorks() {
	for works.Len() > 0 {
		works.Get()
	}
}

// checkWorksIdle asserts that the free list holds want works and that none
// of them pins a row: every header array is clear to its capacity, no
// bucket holds a file or a count, and the reader is closed.
func checkWorksIdle(t *testing.T, want int) {
	t.Helper()
	idle := make([]*work, works.Len())
	for i := range idle {
		idle[i] = works.Get()
	}
	defer func() {
		for _, w := range idle {
			works.Put(w)
		}
	}()
	if len(idle) != want {
		t.Fatalf("%d works idle, want %d", len(idle), want)
	}
	for _, w := range idle {
		if len(w.buckets)+len(w.order)+len(w.tuples) != 0 {
			t.Fatalf("an idle work has %d buckets, %d in order and %d tuples in use", len(w.buckets), len(w.order), len(w.tuples))
		}
		for i, b := range w.buckets[:cap(w.buckets)] {
			if b.spilled() || b.count != 0 || b.memSize != 0 || len(b.mem) != 0 || slices.ContainsFunc(b.mem[:cap(b.mem)], notNil) {
				t.Fatalf("idle bucket %d holds rows or a file: %+v", i, b)
			}
		}
		if slices.ContainsFunc(w.tuples[:cap(w.tuples)], notNil) || slices.ContainsFunc(w.order[:cap(w.order)], func(b *hsBucket) bool { return b != nil }) {
			t.Fatal("an idle work's arrays hold rows or buckets")
		}
		if !reflect.ValueOf(w.reader).IsZero() {
			t.Fatal("an idle work's reader is open")
		}
	}
}

func notNil(t storage.Tuple) bool { return t != nil }
