package reorder

import (
	"fmt"
	"slices"

	"repro/internal/attrs"
	"repro/internal/core"
	"repro/internal/spill"
	"repro/internal/storage"
	"repro/internal/stream"
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
	// ExternalBuckets counts the buckets whose sort spilled. Buckets are
	// sorted as the output is read, so only the output stream's Stats
	// method, called once it is drained, reports them all.
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

// HashedSort reorders the input per Section 3.2. The output stream is one
// segment per non-empty bucket, each sorted on SortKey; its property is
// R_{WHK, SortKey}.
func HashedSort(in stream.Stream, opt HSOptions, cfg Config) (stream.Stream, HSStats, error) {
	var st HSStats
	if len(opt.HashKey) == 0 {
		return nil, st, fmt.Errorf("reorder: HashedSort requires a non-empty hash key")
	}
	if cfg.Store == nil {
		return nil, st, fmt.Errorf("reorder: HashedSort requires a spill store")
	}

	nbuckets := opt.Buckets
	if nbuckets <= 0 {
		// Estimate table size from the budget policy using the distinct
		// hint; the block count is unknown mid-stream, so the policy is
		// applied with a conservative default and corrected by the caller
		// (exec sizes it from catalog statistics).
		nbuckets = int(core.HSBucketCount(opt.DistinctHint, 0, 0))
	}
	if nbuckets < 1 {
		nbuckets = 1
	}

	w := works.Get()
	buckets := w.bucketSet(nbuckets)
	var (
		memUsed int
		err     error
	)
	defer in.Close()
	fail := func(err error) (stream.Stream, HSStats, error) {
		releaseBuckets(buckets)
		w.giveBack()
		return nil, st, err
	}

	flush := func(b *hsBucket) error {
		if !b.spilled() {
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
		memUsed -= b.memSize
		b.mem = b.mem[:0]
		b.memSize = 0
		return nil
	}
	// pickVictim is the largest memory-resident bucket: a flush frees the
	// most memory and leaves many small buckets resident, the behaviour
	// Eq. 2's N′ term models.
	pickVictim := func() *hsBucket {
		var victim *hsBucket
		for _, b := range buckets {
			if len(b.mem) > 0 && (victim == nil || b.memSize > victim.memSize) {
				victim = b
			}
		}
		return victim
	}

	// Build phase: route every input tuple.
	for {
		r, ok := in.Next()
		if !ok {
			break
		}
		st.InputTuples++
		t := r.Tuple
		b := buckets[storage.HashKeyFNV(t, opt.HashKey)%uint64(len(buckets))]
		if b.spilled() {
			// Once flushed, a bucket stays disk-bound (Section 3.2).
			if err = b.writer.Write(t); err != nil {
				return fail(err)
			}
			b.count++
			continue
		}
		size := t.Size()
		if cfg.MemoryBytes > 0 && memUsed+size > cfg.MemoryBytes {
			victim := pickVictim()
			if victim != nil {
				if err = flush(victim); err != nil {
					return fail(err)
				}
			}
		}
		if b.spilled() { // b itself was the victim
			if err = b.writer.Write(t); err != nil {
				return fail(err)
			}
			b.count++
			continue
		}
		b.mem = append(b.mem, t)
		b.memSize += size
		b.count++
		memUsed += size
	}

	st.Buckets = 0
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

	out := &hsStream{
		arena:   arena,
		sorter:  cfg.sorter(opt.SortKey),
		work:    w,
		buckets: buckets,
		stats:   &st,
	}
	out.sorter.Arena = arena
	return out, st, nil
}

// hsStream lazily sorts and emits buckets one at a time.
type hsStream struct {
	arena   *storage.TupleArena // where spilled buckets are loaded
	sorter  *xsort.Sorter       // one for every bucket
	work    *work               // the buckets' and the loads' arrays; nil once given back
	buckets []*hsBucket         // not yet emitted
	// current is the bucket being emitted: sorted in place in its resident
	// array, or loaded into work.tuples (and merged back into it when its
	// sort spills), where it stays until the next bucket is loaded over it.
	current []storage.Tuple
	pos     int
	stats   *HSStats
	err     error
}

// Stats reports the sort so far: ExternalBuckets counts the buckets
// emitted until now whose sort spilled.
func (s *hsStream) Stats() HSStats { return *s.stats }

func (s *hsStream) Next() (stream.Row, bool) {
	for {
		if s.pos < len(s.current) {
			r := stream.Row{Tuple: s.current[s.pos], Boundary: s.pos == 0}
			s.pos++
			return r, true
		}
		// Advance to the next non-empty bucket.
		var b *hsBucket
		for len(s.buckets) > 0 {
			cand := s.buckets[0]
			s.buckets = s.buckets[1:]
			if cand.count > 0 {
				b = cand
				break
			}
		}
		if b == nil {
			s.end()
			return stream.Row{}, false
		}
		sorted, sstats, err := s.sortBucket(b)
		if err != nil {
			s.err = err
			s.end()
			return stream.Row{}, false
		}
		if !sstats.InMemory {
			s.stats.ExternalBuckets++
		}
		s.current = sorted
		s.pos = 0
	}
}

// sortBucket sorts a bucket on the sort key. A spilled bucket is read back
// into the arena first; if it is too large to sort in memory, the arena is
// released back to where the bucket began once its runs are written, and
// the merge decodes over what was loaded.
func (s *hsStream) sortBucket(b *hsBucket) ([]storage.Tuple, xsort.Stats, error) {
	if !b.spilled() {
		return s.sorter.SortTuples(b.mem)
	}
	mark := s.arena.Mark()
	tuples, err := s.loadBucket(b)
	if err != nil {
		return nil, xsort.Stats{}, err
	}
	return s.sorter.SortLoaded(tuples, mark)
}

// loadBucket reads a spilled bucket back into work.tuples and releases its
// file. Under the flush rule a spilled bucket keeps nothing in memory:
// flush moves everything out and later arrivals append to the file.
func (s *hsStream) loadBucket(b *hsBucket) ([]storage.Tuple, error) {
	f, err := b.writer.Finish()
	if err != nil {
		b.writer.Abort()
		return nil, err
	}
	defer f.Release()
	rd := &s.work.reader
	if err := rd.Open(f, s.arena); err != nil {
		return nil, err
	}
	defer rd.Close()
	tuples := slices.Grow(s.work.tuples[:0], b.count)
	for {
		t, ok, err := rd.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		tuples = append(tuples, t)
	}
	s.work.tuples = tuples
	return tuples, nil
}

// end releases the spill files of the buckets the stream was not read
// through to and gives the work back: the stream has emitted its last row.
// Ending twice is harmless.
func (s *hsStream) end() {
	releaseBuckets(s.buckets)
	s.buckets, s.current, s.pos = nil, nil, 0
	if s.work != nil {
		s.work.giveBack()
		s.work = nil
	}
}

// Close ends the stream wherever its reader stopped.
func (s *hsStream) Close() error {
	s.end()
	return s.err
}
