package exec

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/reorder"
	"repro/internal/storage"
	"repro/internal/stream"
)

// applyReorder puts step's reordering operator over in. detail renders the
// operator's statistics for StepMetrics.Detail and is nil for a step
// without a reorder; Segmented Sort counts while it streams, so call it
// once out is drained. tableBlocks is B(R) of the chain's input, for the
// Hashed Sort bucket-count policy.
func applyReorder(in stream.Stream, step core.Step, cfg Config, rcfg reorder.Config, tableBlocks int64) (out stream.Stream, detail func() string, err error) {
	grouped, g0 := rcfg.Grouped, *rcfg.Grouped
	switch step.Reorder {
	case core.ReorderFS:
		var st reorder.FSStats
		out, st, err = reorder.FullSort(in, step.SortKey, rcfg)
		detail = func() string {
			return fmt.Sprintf("runs=%d passes=%d inmem=%v grouped=%d", st.Sort.InitialRuns, st.Sort.MergePasses, st.Sort.InMemory, st.Sort.Grouped)
		}
	case core.ReorderHS:
		opt := reorder.HSOptions{
			HashKey: step.HashKey.IDs(),
			SortKey: step.SortKey,
			Buckets: cfg.HSBuckets,
		}
		if cfg.Distinct != nil {
			opt.DistinctHint = cfg.Distinct(step.HashKey)
		}
		if opt.Buckets <= 0 {
			opt.Buckets = int(core.HSBucketCount(opt.DistinctHint, tableBlocks, int64(cfg.MemoryBytes)/int64(cfg.blockSize())))
		}
		out, _, err = reorder.HashedSort(in, opt, rcfg)
		hs, _ := out.(interface{ Stats() reorder.HSStats })
		detail = func() string {
			st := hs.Stats()
			return fmt.Sprintf("buckets=%d spilled=%d resident=%d external=%d grouped=%d", st.Buckets, st.SpilledBuckets, st.MemoryResident, st.ExternalBuckets, *grouped-g0)
		}
	case core.ReorderSS:
		opt := reorder.SSOptions{Alpha: step.Alpha, Beta: step.Beta}
		if step.In.Grouped {
			// Grouped inputs carry their segment structure in the data.
			opt.SegmentBy = step.In.X.IDs()
		}
		var st *reorder.SSStats
		out, st, err = reorder.SegmentedSort(in, opt, rcfg)
		detail = func() string {
			return fmt.Sprintf("segments=%d units=%d external=%d grouped=%d", st.Segments, st.Units, st.ExternalUnits, *grouped-g0)
		}
	default:
		out = in
	}
	return out, detail, err
}

// reorderShared puts step's reordering operator over rows that are not the
// caller's to write — a table's, a SharedSegment's — and drains it into an
// order of its own: the reorder permutes headers of the input's own tuples
// (or of rows it read back from a spill).
func reorderShared(rows []storage.Tuple, step core.Step, cfg Config, rcfg reorder.Config, tableBlocks int64) ([]storage.Tuple, func() string, error) {
	out, detail, err := applyReorder(stream.FromTuples(rows), step, cfg, rcfg, tableBlocks)
	if err != nil {
		return nil, nil, err
	}
	ordered, err := finalOrder(out, len(rows), rcfg.Arena)
	return ordered, detail, err
}

// finalOrder drains out, a reorder over n rows, into an array of its own
// carved from arena. A Full Sort's output is a tuple slice already and is
// taken as it stands rather than copied.
func finalOrder(out stream.Stream, n int, arena *storage.TupleArena) ([]storage.Tuple, error) {
	if rows, ok := stream.BackingTuples(out); ok {
		return rows, nil
	}
	return stream.AppendTuples(arena.Headers(n), out)
}

// rowArray is the one row array of a chain with a reorder after its first
// step: every reorder reads it and is drained back into it, and every
// evaluation before the last reorder extends its rows where they lie.
type rowArray struct {
	rows []storage.Tuple
	// starts lists the indices in rows at which a segment begins; spare is
	// the list the next drain fills — two, because the reorder being drained
	// is still reading starts.
	starts, spare []int
}

// fill makes the array a copy of the input tuples in the chain's arena, with
// no segment starts: the rows as its first value slab and the array in one
// header slab. Each row comes out
// with the chain's width as capacity, spare slots for the derived columns
// that must stay in the tuple (those of the steps before the chain's last
// reorder), so window evaluation (Tuple.Extend) grows rows in place. The
// copy also severs those steps from the engine-owned table rows, which must
// never observe the appends — and the three-index slices pin each row's
// capacity to its own arena region, so a row cannot grow into its
// neighbour. In-place
// extension is safe because the chain never duplicates a row reference:
// reorders permute, and each step extends each row of the array once. A
// reorder that spills drops the rows it wrote out and reads them back into
// the same arena (reorder.Config.Arena) — over this slab, once the whole
// input is on disk — so the discipline holds across FS runs, HS buckets and
// SS units too. Strings are not copied: the table's outlive the chain.
func (a *rowArray) fill(table *storage.Table, arena *storage.TupleArena) {
	rows := arena.Headers(len(table.Rows))
	arena.Reserve(len(table.Rows))
	for _, t := range table.Rows {
		rows = append(rows, arena.Copy(t))
	}
	a.rows, a.starts = rows, a.starts[:0]
}

// reorder puts step's reordering operator over the array and drains it back
// into the array. A reorder that hands back a tuple slice (Full Sort: the
// array itself, sorted where it lay, or the slice its merge filled) has
// that slice become the array. Any other holds what it has read and not yet
// emitted in buffers of its own, and a 1:1 operator cannot emit a row
// before reading it, so slot k is always behind the read position when
// output row k lands in it; both halves are checked, not assumed.
func (a *rowArray) reorder(step core.Step, cfg Config, rcfg reorder.Config, tableBlocks int64) (detail func() string, err error) {
	in := stream.FromArray(a.rows, a.starts)
	out, detail, err := applyReorder(in, step, cfg, rcfg, tableBlocks)
	if err != nil {
		return nil, err
	}
	starts := a.spare[:0]
	if sorted, ok := stream.BackingTuples(out); ok {
		a.rows = sorted
	} else {
		unread := in.(stream.Sized)
		k := 0
		for r, ok := out.Next(); ok; r, ok = out.Next() {
			if k >= len(a.rows)-unread.Remaining() {
				out.Close() // a reorder cut short gives up its spill files
				return nil, fmt.Errorf("output row %d emitted before input row %d was read", k, k)
			}
			if r.Boundary && k > 0 {
				starts = append(starts, k)
			}
			a.rows[k] = r.Tuple
			k++
		}
		if err := out.Close(); err != nil {
			return nil, err
		}
		a.rows = a.rows[:k]
	}
	a.starts, a.spare = starts, a.starts
	return detail, nil
}
