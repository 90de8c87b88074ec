package exec

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/reorder"
	"repro/internal/storage"
)

// applyReorder applies step's reordering operator to rows where they lie —
// a segmented relation whose segments begin at starts — and appends the
// starts of its output's segments to out, which must not share starts'
// array. detail renders the operator's statistics for StepMetrics.Detail.
// tableBlocks is B(R) of the chain's input, for the Hashed Sort bucket-count
// policy.
func applyReorder(rows []storage.Tuple, starts, out []int, step core.Step, cfg Config, rcfg reorder.Config, tableBlocks int64) (_ []int, detail string, err error) {
	grouped := *rcfg.Grouped
	switch step.Reorder {
	case core.ReorderFS:
		var st reorder.FSStats
		st, err = reorder.Full(rows, step.SortKey, rcfg)
		detail = fmt.Sprintf("runs=%d passes=%d inmem=%v grouped=%d", st.Sort.InitialRuns, st.Sort.MergePasses, st.Sort.InMemory, st.Sort.Grouped)
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
		var st reorder.HSStats
		out, st, err = reorder.Hashed(rows, out, opt, rcfg)
		detail = fmt.Sprintf("buckets=%d spilled=%d resident=%d external=%d grouped=%d", st.Buckets, st.SpilledBuckets, st.MemoryResident, st.ExternalBuckets, *rcfg.Grouped-grouped)
	case core.ReorderSS:
		opt := reorder.SSOptions{Alpha: step.Alpha, Beta: step.Beta}
		if step.In.Grouped {
			// Grouped inputs carry their segment structure in the data.
			opt.SegmentBy = step.In.X.IDs()
		}
		var st reorder.SSStats
		out, st, err = reorder.Segmented(rows, starts, out, opt, rcfg)
		detail = fmt.Sprintf("segments=%d units=%d external=%d grouped=%d", st.Segments, st.Units, st.ExternalUnits, *rcfg.Grouped-grouped)
	default:
		out = append(out, starts...)
	}
	return out, detail, err
}

// rowArray is the row array of a chain: every reorder permutes it where it
// lies, and every evaluation before the last reorder extends its rows where
// they lie.
type rowArray struct {
	rows []storage.Tuple
	// starts lists the indices > 0 in rows at which a segment begins; spare
	// is the list the next reorder fills — two, because the reorder reads
	// starts while it appends to spare.
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

// share makes the array a copy of the headers of rows that are not the
// chain's to write — a table's, a SharedSegment's — carved from arena, with
// no segment starts: a reorder then permutes headers of the input's own
// tuples (or of rows it read back from a spill), which are never extended.
func (a *rowArray) share(rows []storage.Tuple, arena *storage.TupleArena) {
	a.rows, a.starts = append(arena.Headers(len(rows)), rows...), a.starts[:0]
}

// reorder applies step's reordering operator to the array where it lies.
func (a *rowArray) reorder(step core.Step, cfg Config, rcfg reorder.Config, tableBlocks int64) (detail string, err error) {
	starts, detail, err := applyReorder(a.rows, a.starts, a.spare[:0], step, cfg, rcfg, tableBlocks)
	a.starts, a.spare = starts, a.starts
	return detail, err
}
