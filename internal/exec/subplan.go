package exec

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
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
	if !rebuildsOrder(step.Reorder) {
		// A shared scan materializes only heavy reorders; SS depends on the
		// consumer's segment structure and is never the subplan seam.
		return nil, nil, fmt.Errorf("exec: reorder %s cannot lead a shared subplan", step.Reorder)
	}
	start := time.Now()
	var comparisons int64
	// A private arena, never recycled: the segment's rows, and the strings
	// its spills read back, outlive any one statement and go to the GC with
	// the segment.
	ws := getWorkspace(cfg)
	defer ws.giveBack()
	rcfg := ws.reorderConfig(cfg, &comparisons, storage.NewTupleArena(table.Schema.Len()))
	stats := ws.store.Stats()
	tableBlocks := int64(table.ByteSize()) / int64(cfg.blockSize())

	// No copy of a row, and nothing downstream extends a segment's rows.
	ws.rows.share(table.Rows, rcfg.Arena)
	detail, err := ws.rows.reorder(step, cfg, rcfg, tableBlocks)
	if err != nil {
		return nil, nil, fmt.Errorf("exec: shared %s reorder: %w", step.Reorder, err)
	}
	result := storage.NewTable(table.Schema)
	result.Rows = ws.rows.rows
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
			Rows:          int64(result.Len()),
			Duration:      time.Since(start),
			Detail:        detail,
		}},
	}
	return result, metrics, nil
}
