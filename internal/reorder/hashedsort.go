package reorder

import (
	"fmt"
	"slices"

	"repro/internal/attrs"
	"repro/internal/core"
	"repro/internal/spill"
	"repro/internal/storage"
	"repro/internal/xsort"
)

// HSOptions configures one Hashed Sort.
type HSOptions struct {
	// HashKey is WHK ⊆ WPK: the partitioning attributes.
	HashKey []attrs.ID
	// SortKey is →WPK ∘ WOK: each bucket's sort order.
	SortKey attrs.Seq
	// Buckets overrides the bucket-count policy when > 0.
	Buckets int
	// DistinctHint estimates D(WHK) for the bucket-count policy (0 = unknown).
	DistinctHint int64
}

// HSStats reports a HashedSort execution.
type HSStats struct {
	Buckets        int
	SpilledBuckets int
	MemoryResident int
	InputTuples    int
	// ExternalBuckets counts the buckets whose sort spilled.
	ExternalBuckets int
}

// hsBucket is one hash partition during the build phase.
type hsBucket struct {
	mem     []storage.Tuple // memory-resident tuples
	memSize int
	writer  spill.Writer // has a file once the bucket has been flushed
	count   int
}

// spilled reports whether the bucket has been flushed.
func (b *hsBucket) spilled() bool { return b.writer.File() != nil }

// releaseBuckets gives up the spill files of buckets that will not be read.
func releaseBuckets(buckets []*hsBucket) {
	for _, b := range buckets {
		if b.spilled() {
			b.writer.Abort()
		}
	}
}

// Hashed reorders rows where they lie per Section 3.2 — whatever their
// segments — into one segment per non-empty bucket, each sorted on SortKey:
// the property R_{WHK, SortKey}. It appends the start of every segment but
// the first to starts and returns them. Its build phase routes every row to
// a bucket; then it writes the buckets back over rows one after another —
// the resident ones first, each sorted where it landed, then the spilled
// ones, each read back into its place and sorted there.
func Hashed(rows []storage.Tuple, starts []int, opt HSOptions, cfg Config) ([]int, HSStats, error) {
	var st HSStats
	if len(opt.HashKey) == 0 {
		return starts, st, fmt.Errorf("reorder: HashedSort requires a non-empty hash key")
	}
	if cfg.Store == nil {
		return starts, st, fmt.Errorf("reorder: HashedSort requires a spill store")
	}

	nbuckets := opt.Buckets
	if nbuckets <= 0 {
		// Estimate table size from the budget policy using the distinct
		// hint alone; exec sizes it from catalog statistics instead.
		nbuckets = int(core.HSBucketCount(opt.DistinctHint, 0, 0))
	}
	w := works.Get()
	// buckets holds the ones not yet written back, whose spill files a
	// failure gives up.
	buckets := w.bucketSet(max(nbuckets, 1))
	defer func() {
		releaseBuckets(buckets)
		w.giveBack()
	}()
	st.InputTuples = len(rows)
	if err := build(rows, buckets, opt.HashKey, cfg, &st); err != nil {
		return starts, st, err
	}

	for _, b := range buckets {
		if b.count > 0 {
			st.Buckets++
			if !b.spilled() {
				st.MemoryResident++
			}
		}
	}

	// Sort order: memory-resident buckets, then disk-resident buckets
	// (Section 3.2's prescribed order).
	onDisk := func(b *hsBucket) int {
		if b.spilled() {
			return 1
		}
		return 0
	}
	slices.SortStableFunc(buckets, func(a, b *hsBucket) int { return onDisk(a) - onDisk(b) })

	arena := cfg.Arena
	if arena == nil {
		arena = storage.NewTupleArena(0)
	} else if st.SpilledBuckets > 0 && arena.Mark() != (storage.ArenaMark{}) {
		// The input is consumed and what spilled of it is on disk. What
		// stayed in memory moves out of the arena — rows and strings, the
		// previous step may have decoded both into it — into the work's
		// keep arena, the arena starts over, and it moves back to the
		// arena's start: the spilled buckets come back after it, over the
		// input. (An arena nothing was carved from — the input is a table's
		// own rows — has nothing to hand back.)
		survivors := 0
		for _, b := range buckets {
			survivors += len(b.mem)
		}
		keep := w.keepArena()
		for _, b := range buckets {
			for i, t := range b.mem {
				b.mem[i] = keep.CopyStrings(t)
			}
		}
		arena.Reset()
		arena.Reserve(survivors)
		for _, b := range buckets {
			for i, t := range b.mem {
				b.mem[i] = arena.CopyStrings(t)
			}
		}
		keep.Reset()
	}

	sorter := cfg.sorter(opt.SortKey)
	sorter.Arena = arena
	for at := 0; len(buckets) > 0; {
		b := buckets[0]
		buckets = buckets[1:]
		if b.count == 0 {
			continue
		}
		if at > 0 {
			starts = append(starts, at)
		}
		seg := rows[at : at+b.count : at+b.count]
		at += b.count
		sst, err := sortBucket(b, seg, sorter, &w.reader)
		if err != nil {
			return starts, st, err
		}
		if !sst.InMemory {
			st.ExternalBuckets++
		}
	}
	return starts, st, nil
}

// build routes every row to its bucket. When a row does not fit the budget
// it flushes the largest resident bucket: a flush frees the most memory and
// leaves many small buckets resident, the behaviour Eq. 2's N′ term models.
// Once flushed, a bucket stays disk-bound (Section 3.2).
func build(rows []storage.Tuple, buckets []*hsBucket, key []attrs.ID, cfg Config, st *HSStats) error {
	memUsed := 0
	for _, t := range rows {
		b := buckets[storage.HashKeyFNV(t, key)%uint64(len(buckets))]
		b.count++
		if b.spilled() {
			if err := b.writer.Write(t); err != nil {
				return err
			}
			continue
		}
		size := t.Size()
		if cfg.MemoryBytes > 0 && memUsed+size > cfg.MemoryBytes {
			var victim *hsBucket
			for _, c := range buckets {
				if len(c.mem) > 0 && (victim == nil || c.memSize > victim.memSize) {
					victim = c
				}
			}
			if victim != nil {
				if err := victim.flush(cfg, st); err != nil {
					return err
				}
				memUsed -= victim.memSize
				victim.mem, victim.memSize = victim.mem[:0], 0
			}
			if b.spilled() { // b itself was the victim
				if err := b.writer.Write(t); err != nil {
					return err
				}
				continue
			}
		}
		b.mem = append(b.mem, t)
		b.memSize += size
		memUsed += size
	}
	return nil
}

// flush writes b's resident rows to its spill file, creating the file the
// first time.
func (b *hsBucket) flush(cfg Config, st *HSStats) error {
	if !b.spilled() {
		var err error
		if b.writer, err = spill.NewWriter(cfg.Store); err != nil {
			return err
		}
		st.SpilledBuckets++
	}
	for _, t := range b.mem {
		if err := b.writer.Write(t); err != nil {
			return err
		}
	}
	return nil
}

// sortBucket writes bucket b over seg and sorts it there on the sorter's
// key. A spilled bucket is read back through rd into the sorter's arena
// first, and its file released; if it is too large to sort in memory, the
// arena is released back to where the bucket began once its runs are
// written, and the merge decodes over what was loaded. Under the flush rule
// a spilled bucket keeps nothing in memory: flush moves everything out and
// later arrivals append to the file.
func sortBucket(b *hsBucket, seg []storage.Tuple, sorter *xsort.Sorter, rd *spill.Reader) (xsort.Stats, error) {
	if !b.spilled() {
		copy(seg, b.mem)
		_, st, err := sorter.SortTuples(seg)
		return st, err
	}
	f, err := b.writer.Finish()
	if err != nil {
		b.writer.Abort()
		return xsort.Stats{}, err
	}
	defer f.Release()
	mark := sorter.Arena.Mark()
	if err := rd.Open(f, sorter.Arena); err != nil {
		return xsort.Stats{}, err
	}
	defer rd.Close()
	for i := range seg {
		t, ok, err := rd.Next()
		if err == nil && !ok {
			err = fmt.Errorf("reorder: a %d-row bucket file ends at row %d", len(seg), i)
		}
		if err != nil {
			return xsort.Stats{}, err
		}
		seg[i] = t
	}
	_, st, err := sorter.SortLoaded(seg, mark)
	return st, err
}
