package reorder

import (
	"slices"
	"testing"

	"repro/internal/attrs"
	"repro/internal/pagestore"
	"repro/internal/storage"
)

// fuzzRows decodes data, two bytes a row, into rows of three small int
// columns (column 2 NULL where it would be 0) and a unique tag, copied into
// a fresh arena as a chain's row array is, and the input's segment starts:
// the rows whose second byte has its top bit set.
func fuzzRows(data []byte) ([]storage.Tuple, []int, *storage.TupleArena) {
	n := min(len(data)/2, 1024)
	arena := storage.NewTupleArena(4)
	arena.Reserve(n)
	rows, starts := make([]storage.Tuple, n), []int(nil)
	for i := range rows {
		b0, b1 := data[2*i], data[2*i+1]
		c2 := storage.Int(int64(b1 & 15))
		if b1&15 == 0 {
			c2 = storage.Null
		}
		rows[i] = arena.Copy(storage.Tuple{storage.Int(int64(b0 & 7)), storage.Int(int64(b0 >> 3 & 7)), c2, storage.Int(int64(i))})
		if b1&0x80 != 0 && i > 0 {
			starts = append(starts, i)
		}
	}
	return rows, starts, arena
}

// fuzzRun is one operator over rows where they lie, and what it reported.
type fuzzRun struct {
	rows                []storage.Tuple
	starts              []int
	stats               any
	comparisons, blocks int64
}

// FuzzInPlace runs Full, Hashed or Segmented (op) over rows decoded from
// data, with keys picking the columns, directions and null placement of the
// operator's keys and options, at a budget that spills or at none. The
// output must be a permutation of the input (of its very headers when
// nothing spilled); FS totally ordered on its key; every HS segment sorted on
// SortKey with no hash group in two segments; SS's starts every input start
// (and exactly those without SegmentBy), each segment ordered on α∘β. Two
// runs over equal inputs make the same comparisons, blocks, rows, starts and
// statistics, and afterwards the block pool has every block back and the
// works are idle.
func FuzzInPlace(f *testing.F) {
	f.Add([]byte{}, uint8(0), false, uint8(0))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(0), true, uint8(3))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(1), true, uint8(45))
	f.Add([]byte("THE QUICK BROWN FOX \xff\x80 JUMPS OVER THE LAZY DOG \x81\x01"), uint8(2), true, uint8(200))
	f.Add([]byte("\x00\x80\x01\x80\x07\x00\x3f\x81\x09\x8f\x12\x00\x1b\x05\x24\x80"), uint8(2), false, uint8(97))
	f.Fuzz(func(t *testing.T, data []byte, op uint8, spills bool, keys uint8) {
		perm := [][3]attrs.ID{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}[keys%6]
		e0, e1, e2 := attrs.Asc(perm[0]), attrs.Elem{Attr: perm[1], Desc: keys&8 != 0}, attrs.Elem{Attr: perm[2], NullsFirst: keys&16 != 0}
		fs := attrs.Seq{e0, e1, e2}
		hs := HSOptions{HashKey: []attrs.ID{perm[0]}, SortKey: attrs.Seq{e0, e1}, Buckets: 1 + int(keys>>5)}
		if keys&32 != 0 {
			hs.HashKey, hs.SortKey = append(hs.HashKey, perm[1]), attrs.Seq{e0, attrs.Asc(perm[1]), e2}
		}
		ss := SSOptions{Alpha: attrs.Seq{e0}, Beta: attrs.Seq{e1, e2}}
		if keys&32 != 0 {
			ss.Alpha = nil
		}
		if keys&64 != 0 {
			ss.SegmentBy = []attrs.ID{perm[2]}
		}
		memory := 0
		if spills {
			memory = 512
		}
		_, idle := pagestore.PoolCounters()
		takeWorks()
		run := func() fuzzRun {
			rows, in, arena := fuzzRows(data)
			if op%3 == 2 {
				// SS's input is ordered on α within each segment.
				for _, seg := range segments(rows, in) {
					slices.SortStableFunc(seg, func(a, b storage.Tuple) int { return storage.CompareSeq(a, b, ss.Alpha) })
				}
			}
			stats := &pagestore.Stats{}
			r := fuzzRun{rows: slices.Clone(rows)}
			cfg := Config{MemoryBytes: memory, Store: pagestore.NewMem(256, stats), Comparisons: &r.comparisons, Arena: arena}
			var err error
			switch op % 3 {
			case 0:
				r.stats, err = Full(r.rows, fs, cfg)
			case 1:
				r.starts, r.stats, err = Hashed(r.rows, nil, hs, cfg)
			case 2:
				r.starts, r.stats, err = Segmented(r.rows, in, nil, ss, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			r.blocks = stats.TotalBlocks()
			checkInPlace(t, op%3, rows, in, r, fs, hs, ss)
			return r
		}
		a, b := run(), run()
		if a.comparisons != b.comparisons || a.blocks != b.blocks || !slices.Equal(a.starts, b.starts) || a.stats != b.stats {
			t.Fatalf("two runs differ: %d and %d comparisons, %d and %d blocks, starts %v and %v, %+v and %+v",
				a.comparisons, b.comparisons, a.blocks, b.blocks, a.starts, b.starts, a.stats, b.stats)
		}
		for i := range a.rows {
			if a.rows[i][3].Int64() != b.rows[i][3].Int64() {
				t.Fatalf("two runs differ at row %d", i)
			}
		}
		if _, held := pagestore.PoolCounters(); held != idle {
			t.Fatalf("%d blocks not handed back", held-idle)
		}
		want := 0
		if op%3 == 1 {
			want = 1
		}
		checkWorksIdle(t, want)
	})
}

// checkInPlace holds one run of operator op over in, whose segments began
// at starts, to the properties FuzzInPlace lists.
func checkInPlace(t *testing.T, op uint8, in []storage.Tuple, starts []int, r fuzzRun, fs attrs.Seq, hs HSOptions, ss SSOptions) {
	t.Helper()
	if len(r.rows) != len(in) {
		t.Fatalf("%d rows out of %d", len(r.rows), len(in))
	}
	seen := make([]bool, len(in))
	headers := map[*storage.Value]bool{}
	for _, row := range in {
		headers[&row[0]] = true
	}
	for _, row := range r.rows {
		tag := row[3].Int64()
		if seen[tag] || r.blocks == 0 && !headers[&row[0]] {
			t.Fatalf("row tagged %d is twice in the output or not an input header", tag)
		}
		seen[tag] = true
	}
	for i, s := range r.starts {
		if s <= 0 || s >= len(in) || i > 0 && s <= r.starts[i-1] {
			t.Fatalf("segment starts %v out of order or range", r.starts)
		}
	}
	segs := segments(r.rows, r.starts)
	switch op {
	case 0:
		if len(r.starts) != 0 || !storage.SortedOn(r.rows, fs) {
			t.Fatal("FS output is not one sorted segment")
		}
	case 1:
		group := map[string]int{}
		for si, seg := range segs {
			if !storage.SortedOn(seg, hs.SortKey) {
				t.Fatalf("HS segment %d is not sorted on %s", si, hs.SortKey)
			}
			for _, row := range seg {
				k := string(storage.AppendTuple(nil, projectTuple(row, hs.HashKey)))
				if prev, ok := group[k]; ok && prev != si {
					t.Fatalf("hash group %q is in segments %d and %d", k, prev, si)
				}
				group[k] = si
			}
		}
	case 2:
		for _, s := range starts {
			if !slices.Contains(r.starts, s) {
				t.Fatalf("SS dropped input start %d: %v", s, r.starts)
			}
		}
		if len(ss.SegmentBy) == 0 && !slices.Equal(r.starts, starts) {
			t.Fatalf("SS without SegmentBy moved the starts %v to %v", starts, r.starts)
		}
		for si, seg := range segs {
			if !storage.SortedOn(seg, ss.Alpha.Concat(ss.Beta)) {
				t.Fatalf("SS segment %d is not ordered on α∘β", si)
			}
		}
	}
}
