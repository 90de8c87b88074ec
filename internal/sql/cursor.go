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
// built, exactly as in ExecuteContext; what the cursor defers is
// everything after the final chain segment. For statements without
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

// StreamContext runs the prepared query and returns a Cursor over its
// output: the streaming sibling of ExecuteContext.
func (p *Prepared) StreamContext(ctx context.Context) (*Cursor, error) {
	return p.stream(ctx, p.entry.Table(), true)
}

// StreamShardContext streams the shard-local part of the statement (WHERE,
// chain, projection — no DISTINCT/ORDER BY/LIMIT): the streaming sibling
// of ExecuteShardContext. Because the shard-local part never finalizes,
// this path always projects lazily — the seam a shard node streams its
// scatter response through.
func (p *Prepared) StreamShardContext(ctx context.Context) (*Cursor, error) {
	return p.stream(ctx, p.entry.Table(), false)
}

// StreamOverContext streams the full prepared pipeline over base instead
// of the catalog entry's rows: the streaming sibling of
// ExecuteOverContext (the coordinator's gather path).
func (p *Prepared) StreamOverContext(ctx context.Context, base *storage.Table) (*Cursor, error) {
	return p.stream(ctx, base, true)
}

func (p *Prepared) stream(ctx context.Context, base *storage.Table, finalize bool) (*Cursor, error) {
	executed, result, err := p.runChain(ctx, base)
	if err != nil {
		return nil, err
	}
	return p.cursor(ctx, executed, result, finalize), nil
}

// cursor builds the cursor over an executed chain. DISTINCT and ORDER BY
// need every projected row before the first output row is known: those
// statements project and finalize eagerly (LIMIT included) and stream the
// finalized buffer. Everything else projects lazily, straight from the
// chain's rows and tail vectors.
func (p *Prepared) cursor(ctx context.Context, executed *exec.Chain, result *Result, finalize bool) *Cursor {
	if finalize && (p.q.Distinct || len(p.orderKey) > 0) {
		out := p.project(executed)
		p.finalize(out, result)
		return &Cursor{cols: p.outCols, src: exec.TableChain(out), meta: result, ctx: ctx, limit: -1}
	}
	limit := int64(-1)
	if finalize {
		limit = p.q.Limit
	}
	return &Cursor{
		cols: p.outCols, src: executed, pick: p.pick,
		meta: result, ctx: ctx, limit: limit,
	}
}

// TableCursor wraps an already-materialized result as a Cursor, for
// serving layers that had to buffer rows (a coordinator finalizing a shard
// concatenation) but speak the cursor surface outward. meta may carry the
// table too; the cursor streams t's rows as-is.
func TableCursor(t *storage.Table, meta *Result) *Cursor {
	return &Cursor{cols: t.Schema.Columns, src: exec.TableChain(t), meta: meta, ctx: context.Background(), limit: -1}
}
