package sql

import (
	"context"
	"io"
	"unsafe"

	"repro/internal/exec"
	"repro/internal/recycle"
	"repro/internal/storage"
	"repro/internal/stream"
)

// Cursor is the pull seam over a prepared statement's execution: an
// incremental iterator over the statement's output, a column batch at a
// time. The phases that need every row — WHERE filtering, the window
// chain's reorders, and finalize's choice of which chain rows leave and in
// what order — run when the cursor is built (Prepared.Open). What the
// cursor defers is the projection: each NextBatch gathers one batch's
// columns straight out of the chain, through finalize's position list when
// there is one, honoring LIMIT by early termination and the context once
// per batch. No output row exists before it is pulled.
//
// A Cursor is single-consumer and not safe for concurrent use; a Prepared
// may serve any number of concurrent cursors, each with a workspace of its
// own.
type Cursor struct {
	cols []storage.Column
	meta Meta // the executed statement's record
	ctx  context.Context

	src    *exec.Chain
	pick   []int       // output column k is chain column pick[k]
	order  []int       // non-nil: output row i is chain row order[i]
	work   *cursorWork // the batch and the position lists, until Close
	batch  int         // the most rows one NextBatch yields: stream.BatchRows of the columns
	pos    int         // rows yielded
	left   int         // rows still to yield: what the LIMIT leaves of them
	closed bool
}

// cursorWork is a cursor's workspace: the one batch every NextBatch
// refills, and finalize's position lists — the output order, DISTINCT's
// survivors and the scratch of the sort that orders them. A cursor takes
// it from cursorWorks once its chain has run and gives it back on Close,
// so a warm statement grows no column vector and no position list.
type cursorWork struct {
	batch   stream.Batch
	order   []int
	listed  []int
	scratch []int
}

var cursorWorks = recycle.NewList((*cursorWork).bytes)

// giveBack empties w's batch — it may still hold strings — and puts w back.
func (w *cursorWork) giveBack() {
	w.batch.Clear()
	cursorWorks.Put(w)
}

// bytes is the memory w retains.
func (w *cursorWork) bytes() int64 {
	return w.batch.Bytes() + int64(cap(w.order)+cap(w.listed)+cap(w.scratch))*int64(unsafe.Sizeof(0))
}

// ints returns *buf at length n, reallocated when it is too short: the
// capacity stays in *buf for the next statement.
func ints(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Columns returns the output schema.
func (c *Cursor) Columns() []storage.Column { return c.cols }

// Meta returns the executed statement's record — the plan, executor
// metrics, final-sort disposition and parallel degree. It is valid from
// cursor creation (the chain has already run).
func (c *Cursor) Meta() *Meta { return &c.meta }

// NextBatch returns the next output rows — as many as
// stream.BatchRows(len(Columns())), fewer only at the end — or io.EOF when
// the stream is exhausted (or the cursor closed), or the context's error
// when it was cancelled mid-stream. No tuple is built on the way: a base
// column is gathered out of the chain's rows, a derived column past the
// chain's last reorder is copied from its tail vector. The batch is the
// cursor's own, refilled by the next call and handed to another cursor
// after Close; the strings in it outlive it and the cursor: they alias the
// input table's, or — when the chain's spills read strings back into its
// arena, which Close hands to the next statement — are copied out of the
// arena, one allocation per string column.
func (c *Cursor) NextBatch() (*stream.Batch, error) {
	n := min(c.batch, c.left)
	if n == 0 {
		return nil, io.EOF
	}
	if err := c.ctx.Err(); err != nil {
		return nil, err
	}
	b := &c.work.batch
	b.Reset(len(c.cols), n)
	for k := range c.cols {
		src := c.pick[k]
		switch tail := src - c.src.Width; {
		case c.order != nil && tail < 0:
			b.GatherTuples(k, c.src.Rows, src, c.order[c.pos:])
		case c.order != nil:
			b.GatherValues(k, c.src.Tail[tail], c.order[c.pos:])
		case tail < 0:
			b.SetTuples(k, c.src.Rows[c.pos:], src)
		default:
			b.SetValues(k, c.src.Tail[tail][c.pos:])
		}
	}
	if c.src.ArenaStrings() {
		b.DetachStrings()
	}
	c.pos, c.left = c.pos+n, c.left-n
	return b, nil
}

// Close releases the cursor: its chain (exec.Chain.Release), whose slabs go
// back to the pool for the next statement's chain, and its workspace, whose
// batch the next statement's cursor refills — the batch NextBatch returned
// last is not to be read afterwards. The rows Materialize returned hold
// copies, and the strings of a batch stay valid (NextBatch). Further
// NextBatch calls return io.EOF. Idempotent.
func (c *Cursor) Close() error {
	if c.closed {
		return nil
	}
	c.src.Release()
	c.work.giveBack()
	c.closed, c.left = true, 0
	c.src, c.order, c.work = nil, nil, nil
	return nil
}

// Materialize drains what the cursor has left into the statement's Result:
// every remaining output row projected out of one value slab. The cursor is
// exhausted and closed afterwards.
func (c *Cursor) Materialize() *Result {
	res := Result{Table: storage.NewTable(storage.NewSchema(c.cols...)), Meta: c.meta}
	if c.left > 0 {
		res.Table.Rows = c.projectRows(c.left)
	}
	_ = c.Close()
	return &res
}

// projectRows materializes the cursor's next n output rows, all of them
// carved out of one value slab, and the strings the chain's arena holds
// copied out of it in one more (NextBatch).
func (c *Cursor) projectRows(n int) []storage.Tuple {
	rows := make([]storage.Tuple, n)
	w := len(c.cols)
	slab := make([]storage.Value, w*n)
	for ri := range rows {
		row := storage.Tuple(slab[ri*w : (ri+1)*w : (ri+1)*w])
		at := c.pos + ri
		if c.order != nil {
			at = c.order[at]
		}
		for k, col := range c.pick {
			row[k] = c.src.At(at, col)
		}
		rows[ri] = row
	}
	if c.src.ArenaStrings() {
		storage.DetachStrings(slab)
	}
	return rows
}
