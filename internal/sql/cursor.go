package sql

import (
	"context"
	"io"

	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/stream"
)

// Cursor is the pull seam over a prepared statement's execution: an
// incremental iterator over the statement's output, a column batch at a
// time. The phases that inherently materialize — WHERE filtering and the
// window chain's reordering operators — run eagerly when the cursor is
// built (Prepared.Open); what the cursor defers is everything after the
// final chain segment. For statements without
// DISTINCT or ORDER BY the projection runs lazily, one batch per
// NextBatch, honoring LIMIT by early termination and the context once per
// batch; statements that need a finalize pass (DISTINCT deduplication, the
// final sort) project and finalize eagerly and then stream the finalized
// buffer the same way.
//
// A Cursor is single-consumer and not safe for concurrent use; a Prepared
// may serve any number of concurrent cursors.
type Cursor struct {
	cols []storage.Column
	meta *Result // Table nil: the executed statement's metadata
	ctx  context.Context

	src    *exec.Chain
	pick   []int        // non-nil: output column k is chain column pick[k]
	batch  stream.Batch // the one batch every NextBatch refills
	limit  int64        // remaining LIMIT budget; -1 = unlimited
	pos    int
	closed bool
}

// Columns returns the output schema.
func (c *Cursor) Columns() []storage.Column { return c.cols }

// Meta returns the executed statement's metadata — the plan, executor
// metrics, final-sort disposition and parallel degree of Result, with
// Table nil. It is valid from cursor creation (the chain has already
// run).
func (c *Cursor) Meta() *Result { return c.meta }

// NextBatch returns the next output rows, at most stream.BatchRows of
// them, or io.EOF when the stream is exhausted (or the cursor closed), or
// the context's error when it was cancelled mid-stream. No tuple is built
// on the way: a base column is gathered out of the chain's rows, a derived
// column past the chain's last reorder is copied from its tail vector. The
// batch is the cursor's own, refilled by the next call; the strings in it
// alias the chain's rows and outlive it.
func (c *Cursor) NextBatch() (*stream.Batch, error) {
	if c.closed || c.limit == 0 || c.pos >= c.src.Len() {
		return nil, io.EOF
	}
	if err := c.ctx.Err(); err != nil {
		return nil, err
	}
	n := min(stream.BatchRows, c.src.Len()-c.pos)
	if c.limit > 0 {
		n = int(min(int64(n), c.limit))
		c.limit -= int64(n)
	}
	rows := c.src.Rows[c.pos : c.pos+n]
	c.batch.Reset(len(c.cols), n)
	for k := range c.cols {
		src := k
		if c.pick != nil {
			src = c.pick[k]
		}
		if src < c.src.Width {
			c.batch.SetTuples(k, rows, src)
		} else {
			c.batch.SetValues(k, c.src.Tail[src-c.src.Width][c.pos:c.pos+n])
		}
	}
	c.pos += n
	return &c.batch, nil
}

// Close releases the cursor; further NextBatch calls return io.EOF.
// Idempotent.
func (c *Cursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.src, c.batch = nil, stream.Batch{}
	return nil
}

// Materialize drains what the cursor has left into the statement's Result:
// every remaining output row projected out of one value slab — or, for a
// result that was finalized eagerly, the finalized buffer itself. The
// cursor is exhausted and closed afterwards.
func (c *Cursor) Materialize() *Result {
	res := *c.meta
	res.Table = storage.NewTable(storage.NewSchema(c.cols...))
	if !c.closed {
		n := c.src.Len() - c.pos
		if c.limit >= 0 {
			n = int(min(int64(n), c.limit))
		}
		if c.pick == nil && len(c.src.Tail) == 0 {
			res.Table.Rows = c.src.Rows[c.pos : c.pos+n]
		} else {
			res.Table.Rows = projectRows(c.src, c.pick, c.pos, n)
		}
	}
	_ = c.Close()
	return &res
}

// projectRows materializes the projection of n chain rows from pos on, all
// of them carved out of one value slab.
func projectRows(src *exec.Chain, pick []int, pos, n int) []storage.Tuple {
	rows := make([]storage.Tuple, n)
	w := len(pick)
	slab := make([]storage.Value, w*n)
	for ri := range rows {
		row := storage.Tuple(slab[ri*w : (ri+1)*w : (ri+1)*w])
		src.Project(row, pos+ri, pick)
		rows[ri] = row
	}
	return rows
}

// newCursor is the one place a Cursor is built: over src, yielding column k
// from chain column pick[k] (nil: the chain's own columns), at most limit
// rows (-1: all of them).
func newCursor(ctx context.Context, cols []storage.Column, src *exec.Chain, pick []int, meta *Result, limit int64) *Cursor {
	return &Cursor{cols: cols, src: src, pick: pick, meta: meta, ctx: ctx, limit: limit}
}
