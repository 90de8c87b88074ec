package exec

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/pagestore"
	"repro/internal/reorder"
	"repro/internal/storage"
	"repro/internal/stream"
)

// ReorderTable applies one reorder step to table without evaluating any
// window function and materializes the result: the physical half of a
// shared scan+reorder subplan (sql.(*Prepared).RunSubplan). The returned
// table keeps the input schema — derived columns are the per-statement
// suffix's business — and carries the step's physical stream property in
// its row order, so any chain whose functions are matched by step.Out can
// evaluate over it scan-only (core.DeriveSuffix). Metrics report the
// reorder's I/O as a single chain step.
func ReorderTable(ctx context.Context, table *storage.Table, step core.Step, cfg Config) (*storage.Table, *Metrics, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	stats := &pagestore.Stats{}
	var store *pagestore.Store
	if cfg.FileBacked {
		store = pagestore.NewFileBacked(cfg.TempDir, cfg.blockSize(), stats)
	} else {
		store = pagestore.NewMem(cfg.blockSize(), stats)
	}

	start := time.Now()
	var comparisons int64
	rcfg := reorder.Config{
		MemoryBytes:  cfg.MemoryBytes,
		Store:        store,
		Comparisons:  &comparisons,
		RunFormation: cfg.RunFormation,
	}
	in := stream.FromRows(arenaRows(table, 0))
	tableBlocks := int64(table.ByteSize()) / int64(cfg.blockSize())

	var (
		out    stream.Stream
		detail string
		err    error
	)
	switch step.Reorder {
	case core.ReorderNone:
		out = in
	case core.ReorderFS:
		var st reorder.FSStats
		out, st, err = reorder.FullSort(in, step.SortKey, rcfg)
		detail = fmt.Sprintf("runs=%d passes=%d inmem=%v", st.Sort.InitialRuns, st.Sort.MergePasses, st.Sort.InMemory)
	case core.ReorderHS:
		opt := reorder.HSOptions{
			HashKey:     step.HashKey.IDs(),
			SortKey:     step.SortKey,
			Buckets:     cfg.HSBuckets,
			SpillPolicy: cfg.SpillPolicy,
		}
		if cfg.Distinct != nil {
			opt.DistinctHint = cfg.Distinct(step.HashKey)
		}
		if opt.Buckets <= 0 {
			opt.Buckets = int(core.HSBucketCount(opt.DistinctHint, tableBlocks, int64(cfg.MemoryBytes)/int64(cfg.blockSize())))
		}
		if cfg.MFV != nil {
			opt.MFVs = cfg.MFV(step.HashKey)
		}
		var st reorder.HSStats
		out, st, err = reorder.HashedSort(in, opt, rcfg)
		detail = fmt.Sprintf("buckets=%d spilled=%d resident=%d mfv=%d", st.Buckets, st.SpilledBuckets, st.MemoryResident, st.MFVTuples)
	default:
		// A shared scan materializes only heavy reorders; SS depends on the
		// consumer's segment structure and is never the subplan seam.
		return nil, nil, fmt.Errorf("exec: reorder %s cannot lead a shared subplan", step.Reorder)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("exec: shared %s reorder: %w", step.Reorder, err)
	}

	rows, err := stream.CollectN(out, table.Len())
	if err != nil {
		return nil, nil, fmt.Errorf("exec: shared scan drain: %w", err)
	}
	result := storage.NewTable(table.Schema)
	result.Rows = make([]storage.Tuple, len(rows))
	for i, r := range rows {
		result.Rows[i] = r.Tuple
	}
	metrics := &Metrics{
		BlocksRead:    stats.BlocksRead(),
		BlocksWritten: stats.BlocksWritten(),
		Comparisons:   comparisons,
		Elapsed:       time.Since(start),
		Steps: []StepMetrics{{
			WFID:          step.WF.ID,
			Reorder:       step.Reorder,
			BlocksRead:    stats.BlocksRead(),
			BlocksWritten: stats.BlocksWritten(),
			Comparisons:   comparisons,
			Rows:          int64(len(rows)),
			Duration:      time.Since(start),
			Detail:        detail,
		}},
	}
	return result, metrics, nil
}
