package reorder

import (
	"errors"
	"math/rand"
	"os"
	"reflect"
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
// relation against a window function: segments pairwise disjoint on X, each
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

// segments cuts rows at starts, the indices > 0 at which a segment begins.
func segments(rows []storage.Tuple, starts []int) [][]storage.Tuple {
	var segs [][]storage.Tuple
	for lo, i := 0, 0; lo < len(rows); i++ {
		hi := len(rows)
		if i < len(starts) {
			hi = starts[i]
		}
		segs = append(segs, rows[lo:hi])
		lo = hi
	}
	return segs
}

// fullSorted returns a copy of rows Full sorted on key.
func fullSorted(t *testing.T, rows []storage.Tuple, key attrs.Seq, cfg Config) []storage.Tuple {
	t.Helper()
	rows = slices.Clone(rows)
	if _, err := Full(rows, key, cfg); err != nil {
		t.Fatal(err)
	}
	return rows
}

// hashed returns a copy of rows Hashed on opt, and its segment starts.
func hashed(t *testing.T, rows []storage.Tuple, opt HSOptions, cfg Config) ([]storage.Tuple, []int, HSStats) {
	t.Helper()
	rows = slices.Clone(rows)
	starts, st, err := Hashed(rows, nil, opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rows, starts, st
}

func TestFullSortBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := randTable(rng, 3000, 20, 20)
	cfg, stats := testConfig(2048)
	key := attrs.AscSeq(0, 1)
	out := slices.Clone(rows)
	fsStats, err := Full(out, key, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !storage.SortedOn(out, key) {
		t.Fatalf("FS output not sorted")
	}
	tagMultisetEqual(t, out, rows, 2)
	if fsStats.Sort.InMemory || stats.TotalBlocks() == 0 {
		t.Errorf("expected external sort under small budget")
	}
}

// TestFullSortInPlace — a Full Sort leaves the stable order on its key in
// the array it was given, at a budget that spills and at one that does not:
// in memory it permutes the input's own headers, and a spilling one merges
// rows read back from its runs into the same array.
func TestFullSortInPlace(t *testing.T) {
	rows := randTable(rand.New(rand.NewSource(4)), 2000, 7, 11)
	key := attrs.AscSeq(0, 1)
	want := slices.Clone(rows)
	slices.SortStableFunc(want, func(a, b storage.Tuple) int { return storage.CompareSeq(a, b, key) })
	for _, mem := range []int{0, 2048} {
		cfg, stats := testConfig(mem)
		array := slices.Clone(rows)
		st, err := Full(array, key, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.Sort.InMemory != (mem == 0) || (stats.TotalBlocks() > 0) == (mem == 0) {
			t.Fatalf("M = %d: %+v and %d blocks", mem, st, stats.TotalBlocks())
		}
		for i := range want {
			if array[i][2].Int64() != want[i][2].Int64() {
				t.Fatalf("M = %d: the sequences differ at row %d", mem, i)
			}
			if mem == 0 && &array[i][0] != &want[i][0] {
				t.Fatalf("row %d is not the input's own tuple", i)
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
		out, starts, hsStats := hashed(t, rows, HSOptions{
			HashKey: []attrs.ID{0},
			SortKey: wfKey,
			Buckets: buckets,
		}, cfg)
		segs := segments(out, starts)
		tagMultisetEqual(t, out, rows, 2)
		verifyMatches(t, segs, attrs.MakeSet(0), wfKey)
		if hsStats.InputTuples != len(rows) {
			t.Errorf("InputTuples = %d", hsStats.InputTuples)
		}
		if len(segs) > buckets || len(segs) != hsStats.Buckets {
			t.Errorf("%d segments from %d buckets, %d non-empty", len(segs), buckets, hsStats.Buckets)
		}
	}
}

func TestHashedSortSpills(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := randTable(rng, 5000, 100, 10)
	cfg, stats := testConfig(2048) // tiny budget: most buckets must spill
	out, _, hsStats := hashed(t, rows, HSOptions{
		HashKey: []attrs.ID{0},
		SortKey: attrs.AscSeq(0, 1),
		Buckets: 32,
	}, cfg)
	tagMultisetEqual(t, out, rows, 2)
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
// flushes bucket 1 alone, and bucket 0 stays resident and is written back
// first.
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
	out, starts, st := hashed(t, rows, HSOptions{HashKey: key, SortKey: attrs.AscSeq(0, 1), Buckets: 2}, cfg)
	segs := segments(out, starts)
	if st.SpilledBuckets != 1 || st.MemoryResident != 1 {
		t.Fatalf("%+v: want one bucket flushed and one resident", st)
	}
	if len(segs) != 2 || len(segs[0]) != 10 || segs[0][0][0].Int64() != small || len(segs[1]) != 30 || segs[1][0][0].Int64() != large {
		t.Fatalf("wrote back %d segments, want the 10-row bucket (resident) and then the 30-row one (flushed)", len(segs))
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
	out := fullSorted(t, rows, attrs.AscSeq(0, 1), cfg)
	// SS to match wf = ({0}, (2)): α = (0), β = (2).
	cfg2, stats2 := testConfig(1 << 20)
	starts, ssStats, err := Segmented(out, nil, nil, SSOptions{
		Alpha: attrs.AscSeq(0),
		Beta:  attrs.AscSeq(2),
	}, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != 0 || ssStats.Segments != 1 {
		t.Fatalf("SS must preserve segment structure: got starts %v, %d segments", starts, ssStats.Segments)
	}
	if !storage.SortedOn(out, attrs.AscSeq(0, 2)) {
		t.Fatalf("SS output not ordered on (0,2)")
	}
	tagMultisetEqual(t, out, rows, 3)
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
	out, in, _ := hashed(t, rows, HSOptions{
		HashKey: []attrs.ID{0}, SortKey: attrs.AscSeq(0, 1), Buckets: 8,
	}, cfg)
	cfg2, _ := testConfig(1 << 20)
	starts, ssStats, err := Segmented(out, in, nil, SSOptions{
		Alpha: nil,
		Beta:  attrs.AscSeq(0, 1),
	}, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(starts, in) {
		t.Fatalf("SS moved the segment starts %v to %v", in, starts)
	}
	verifyMatches(t, segments(out, starts), attrs.MakeSet(0), attrs.AscSeq(0, 1))
	if ssStats.Units != ssStats.Segments {
		t.Errorf("empty α: units (%d) should equal segments (%d)", ssStats.Units, ssStats.Segments)
	}
	tagMultisetEqual(t, out, rows, 2)
}

// TestSegmentedSortSegmentsByValue — with SegmentBy, SS starts a segment
// wherever those values change as well as at every input start, and a unit
// never spans either.
func TestSegmentedSortSegmentsByValue(t *testing.T) {
	rows := randTable(rand.New(rand.NewSource(9)), 600, 4, 50)
	cfg, _ := testConfig(0)
	out := fullSorted(t, rows, attrs.AscSeq(0), cfg)
	in := []int{7, 300} // two starts that no value change explains
	starts, st, err := Segmented(out, in, nil, SSOptions{Beta: attrs.AscSeq(1), SegmentBy: []attrs.ID{0}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for i := 1; i < len(out); i++ {
		if slices.Contains(in, i) || out[i-1][0].Int64() != out[i][0].Int64() {
			want = append(want, i)
		}
	}
	if !slices.Equal(starts, want) || st.Segments != len(want)+1 || st.Units != st.Segments {
		t.Fatalf("starts %v (%+v), want %v", starts, st, want)
	}
	for _, seg := range segments(out, starts) {
		if !storage.SortedOn(seg, attrs.AscSeq(1)) {
			t.Fatal("a segment is not sorted on β")
		}
	}
}

// TestReorderEquivalence — FS, HS and SS all produce segmented relations on
// which the window function sees identical partitions: the cornerstone
// observation of Section 3 (window partitions may arrive in any order).
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
	fsSegs := segments(fullSorted(t, rows, key, cfg1), nil)

	cfg2, _ := testConfig(2048)
	hsRows, hsStarts, _ := hashed(t, rows, HSOptions{HashKey: []attrs.ID{0}, SortKey: key, Buckets: 7}, cfg2)
	hsSegs := segments(hsRows, hsStarts)

	// SS path: sorted on (0), then α = (0), β = (1).
	cfg3, _ := testConfig(1 << 20)
	pre := fullSorted(t, rows, attrs.AscSeq(0), cfg3)
	starts, _, err := Segmented(pre, nil, nil, SSOptions{Alpha: attrs.AscSeq(0), Beta: attrs.AscSeq(1)}, cfg3)
	if err != nil {
		t.Fatal(err)
	}
	ssSegs := segments(pre, starts)

	fsParts := collectPartitions(fsSegs)
	for name, segs := range map[string][][]storage.Tuple{"HS": hsSegs, "SS": ssSegs} {
		got := collectPartitions(segs)
		if len(got) != len(fsParts) {
			t.Fatalf("%s: %d partitions vs FS %d", name, len(got), len(fsParts))
		}
		for k, want := range fsParts {
			if !slices.Equal(got[k], want) {
				t.Fatalf("%s: partition %q is %v, FS has %v", name, k, got[k], want)
			}
		}
	}
}

// TestChainedSegmentedSorts — SS after SS (the chained reorders of C1's
// cover sets) preserves segment structure and sortedness.
func TestChainedSegmentedSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rows := randTable(rng, 2000, 10, 20, 20)
	cfg, _ := testConfig(1 << 20)
	out := fullSorted(t, rows, attrs.AscSeq(0, 1), cfg)
	starts, _, err := Segmented(out, nil, nil, SSOptions{Alpha: attrs.AscSeq(0), Beta: attrs.AscSeq(2)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if starts, _, err = Segmented(out, starts, nil, SSOptions{Alpha: attrs.AscSeq(0), Beta: attrs.AscSeq(1)}, cfg); err != nil {
		t.Fatal(err)
	}
	if len(starts) != 0 || !storage.SortedOn(out, attrs.AscSeq(0, 1)) {
		t.Fatalf("chained SS broke ordering")
	}
	tagMultisetEqual(t, out, rows, 3)
}

func TestHashedSortRequiresKey(t *testing.T) {
	cfg, _ := testConfig(1024)
	if _, _, err := Hashed(nil, nil, HSOptions{SortKey: attrs.AscSeq(0)}, cfg); err == nil {
		t.Errorf("HS without hash key should fail")
	}
}

func TestEmptyInputs(t *testing.T) {
	cfg, _ := testConfig(1024)
	if st, err := Full(nil, attrs.AscSeq(0), cfg); err != nil || st.Sort.Tuples != 0 {
		t.Errorf("FS of empty input: %+v, %v", st, err)
	}
	if starts, st, err := Hashed(nil, nil, HSOptions{HashKey: []attrs.ID{0}, SortKey: attrs.AscSeq(0), Buckets: 4}, cfg); err != nil || len(starts) != 0 || st.Buckets != 0 {
		t.Errorf("HS of empty input: %v, %+v, %v", starts, st, err)
	}
	if starts, st, err := Segmented(nil, nil, nil, SSOptions{Beta: attrs.AscSeq(0)}, cfg); err != nil || len(starts) != 0 || st.Units != 0 {
		t.Errorf("SS of empty input: %v, %+v, %v", starts, st, err)
	}
}

// TestStreamFormsMatchTheArrayForms — the stream forms the benchmark
// harness calls take their input's boundaries as its segment starts, and
// tag the rows the array forms leave, in the same order, with the starts
// the array forms return; their statistics are the array forms' too.
func TestStreamFormsMatchTheArrayForms(t *testing.T) {
	rows := randTable(rand.New(rand.NewSource(10)), 3000, 30, 20)
	in := []int{1000, 2000}
	tagged := func() stream.Stream {
		out := make([]stream.Row, len(rows))
		for i, r := range rows {
			out[i] = stream.Row{Tuple: r, Boundary: i == 0 || slices.Contains(in, i)}
		}
		return stream.FromRows(out)
	}
	check := func(name string, out stream.Stream, err error, want []storage.Tuple, wantStarts []int) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		got, err := stream.Collect(out)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
		}
		for i, r := range got {
			if r.Tuple[2].Int64() != want[i][2].Int64() || r.Boundary != (i == 0 || slices.Contains(wantStarts, i)) {
				t.Fatalf("%s: row %d differs", name, i)
			}
		}
	}
	key := attrs.AscSeq(0, 1)
	cfg, _ := testConfig(2048)

	out, fs, err := FullSort(tagged(), key, cfg)
	check("FS", out, err, fullSorted(t, rows, key, cfg), nil)

	opt := HSOptions{HashKey: []attrs.ID{0}, SortKey: key, Buckets: 8}
	hsRows, hsStarts, hsStats := hashed(t, rows, opt, cfg)
	out, hs, err := HashedSort(tagged(), opt, cfg)
	check("HS", out, err, hsRows, hsStarts)

	ssRows, ssOpt := slices.Clone(rows), SSOptions{Beta: attrs.AscSeq(1)}
	ssStarts, ssStats, err := Segmented(ssRows, in, nil, ssOpt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, ss, err := SegmentedSort(tagged(), ssOpt, cfg)
	check("SS", out, err, ssRows, ssStarts)
	if fs.Sort.InMemory || hs != hsStats || *ss != ssStats || !slices.Equal(ssStarts, in) {
		t.Fatalf("stream forms report %+v, %+v, %+v; array forms %+v, %+v", fs, hs, *ss, hsStats, ssStats)
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

// TestHashedSortReleasesBucketsItDoesNotEmit — a Hashed Sort that fails
// (the store fails its k-th file create, or its k-th page write, for every
// k up to the first that the run never reaches: in the build phase while
// bucket files are open, and while the buckets are written back) and one
// that runs to its end all give up every bucket and run file they opened:
// the spill directory is empty and the pool has its blocks back. Each gives
// its work back too, with no row left in it.
func TestHashedSortReleasesBucketsItDoesNotEmit(t *testing.T) {
	rows := randTable(rand.New(rand.NewSource(3)), 1000, 100, 10)
	opt := HSOptions{HashKey: []attrs.ID{0}, SortKey: attrs.AscSeq(0, 1), Buckets: 32}
	_, idle := pagestore.PoolCounters()
	takeWorks()
	dir := t.TempDir()
	cfg := Config{MemoryBytes: 2048, Store: pagestore.NewFileBacked(dir, 512, nil)}
	faults := 0
	for _, write := range []bool{false, true} {
		for k := 1; ; k++ {
			if write {
				cfg.Store.FailAt(0, k)
			} else {
				cfg.Store.FailAt(k, 0)
			}
			starts, st, err := Hashed(slices.Clone(rows), nil, opt, cfg)
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Fatalf("fault %d (write %v): %d spill files left behind", k, write, len(left))
			}
			if _, held := pagestore.PoolCounters(); held != idle {
				t.Fatalf("fault %d (write %v): %d blocks not handed back", k, write, held-idle)
			}
			checkWorksIdle(t, 1)
			if err == nil {
				if k < 3 || st.SpilledBuckets < 2 || len(starts)+1 != st.Buckets {
					t.Fatalf("write %v: ran through after %d faults, %d spilled buckets, %d starts for %d buckets", write, k-1, st.SpilledBuckets, len(starts), st.Buckets)
				}
				break
			}
			if !errors.Is(err, pagestore.ErrInjected) {
				t.Fatalf("fault %d (write %v): %v", k, write, err)
			}
			faults++
		}
	}
	t.Logf("%d faults injected", faults)
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
		if len(w.buckets)+len(w.order) != 0 {
			t.Fatalf("an idle work has %d buckets and %d in order in use", len(w.buckets), len(w.order))
		}
		for i, b := range w.buckets[:cap(w.buckets)] {
			if b.spilled() || b.count != 0 || b.memSize != 0 || len(b.mem) != 0 || slices.ContainsFunc(b.mem[:cap(b.mem)], notNil) {
				t.Fatalf("idle bucket %d holds rows or a file: %+v", i, b)
			}
		}
		if slices.ContainsFunc(w.order[:cap(w.order)], func(b *hsBucket) bool { return b != nil }) {
			t.Fatal("an idle work's order holds buckets")
		}
		if !reflect.ValueOf(w.reader).IsZero() {
			t.Fatal("an idle work's reader is open")
		}
	}
}

func notNil(t storage.Tuple) bool { return t != nil }
