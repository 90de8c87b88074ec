package windowdb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/trace"
)

// Queryer is the one result surface every backend of this repository
// implements: the in-process Engine, the admission-controlled
// service.Service, the remote service.Client (binary frames over /query), and
// the scatter-gather shard.Cluster. Code written against Queryer runs
// unchanged over any of them — and over database/sql via the sqldriver
// package, whose "windowdb" driver adapts any registered Queryer.
//
// QueryContext returns an incremental Rows cursor; backends hold their
// per-query resources (admission slots, shard streams, HTTP bodies) for
// the cursor's lifetime and release them on Close or when the cursor is
// drained.
type Queryer interface {
	// QueryContext executes one window-query block and returns a cursor
	// over its output rows.
	QueryContext(ctx context.Context, query string) (*Rows, error)
	// PrepareContext validates (and, where the backend can, plans) a
	// statement for repeated execution. Backends without a local planner
	// may defer validation to the statement's first QueryContext.
	PrepareContext(ctx context.Context, query string) (Stmt, error)
}

// Stmt is a prepared statement bound to its Queryer.
type Stmt interface {
	// QueryContext executes the statement and returns a cursor.
	QueryContext(ctx context.Context) (*Rows, error)
	// Close releases the statement.
	Close() error
}

// stmtFunc is a Stmt with nothing to release: one way to run a statement.
type stmtFunc func(ctx context.Context) (*Rows, error)

func (f stmtFunc) QueryContext(ctx context.Context) (*Rows, error) { return f(ctx) }
func (stmtFunc) Close() error                                      { return nil }

// TextStmt is the Stmt of a backend whose plans live in a cache keyed by
// statement text: every execution hands src back to q, so the statement
// survives table re-registration (the cache re-prepares it).
func TextStmt(q Queryer, src string) Stmt {
	return stmtFunc(func(ctx context.Context) (*Rows, error) { return q.QueryContext(ctx, src) })
}

// RowSource is the backend contract behind a Rows cursor: results leave a
// backend as column batches. NextBatch returns the next rows — at most
// stream.BatchRows of the source's columns; an empty batch is skipped — or
// io.EOF at end of stream. The batch is the source's own and is refilled by the
// following call, so it is valid only until then. A source whose rows come
// one at a time batches them through stream.Batcher.
//
// The cursor owns the ending: End is called exactly once, when the stream
// is over — drained, failed, or closed before either — and never
// concurrently with NextBatch. It releases everything the source holds and
// returns the query's execution metadata, nil when there is none to trust
// (a remote stream closed before its trailer). A source keeps no finished
// flag, row count or once-guard of its own.
type RowSource interface {
	Columns() []storage.Column
	NextBatch() (*stream.Batch, error)
	End(Ending) *QueryMetrics
}

// Cursor is an execution cursor, what a backend drains into Rows: the
// shape of sql.Cursor and of Subscription. Meta is its execution record,
// read once its stream has ended.
type Cursor interface {
	Columns() []storage.Column
	NextBatch() (*stream.Batch, error)
	Close() error
	Meta() *sql.Meta
}

// Stamps are what a statement's QueryMetrics carry beside its cursor's
// execution record.
type Stamps struct {
	// Start is when the statement began; Elapsed is measured from it.
	Start time.Time
	// TraceID identifies the statement's trace, "" when it has none.
	TraceID string
	// CacheHit reports that the statement's plan came from the plan cache.
	CacheHit bool
}

// CursorRows is the one way an execution cursor becomes a Rows: every
// backend that runs a cursor of its own — an Engine statement or
// subscription, a served one, a coordinator's finalize — hands it over
// here. live, when non-nil, counts each batch's rows as emitted. At the
// end the cursor's record becomes the QueryMetrics, stamped with s, with
// the execution's span subtree (ExecTrace) as Trace, and the cursor
// closes. Then onEnd, when non-nil, runs with the ending and those
// metrics: the backend releases what it holds for the statement and ends
// it there, and may replace Trace with the tree it grafts that subtree
// into.
func CursorRows(cur Cursor, s Stamps, live *trace.Live, onEnd func(Ending, *QueryMetrics)) *Rows {
	return NewRows(&cursorSource{cur: cur, stamps: s, live: live, onEnd: onEnd})
}

// cursorSource is the RowSource CursorRows builds.
type cursorSource struct {
	cur    Cursor
	stamps Stamps
	live   *trace.Live
	onEnd  func(Ending, *QueryMetrics)
}

func (cs *cursorSource) Columns() []storage.Column { return cs.cur.Columns() }

func (cs *cursorSource) NextBatch() (*stream.Batch, error) {
	b, err := cs.cur.NextBatch()
	if err == nil {
		cs.live.AddRowsEmitted(int64(b.Len()))
	}
	return b, err
}

func (cs *cursorSource) End(end Ending) *QueryMetrics {
	meta := newQueryMetrics(cs.cur.Meta())
	meta.Elapsed = time.Since(cs.stamps.Start)
	meta.TraceID, meta.CacheHit = cs.stamps.TraceID, cs.stamps.CacheHit
	meta.Trace = ExecTrace(meta)
	_ = cs.cur.Close()
	if cs.onEnd != nil {
		cs.onEnd(end, meta)
	}
	return meta
}

// newQueryMetrics wraps an execution record in the public QueryMetrics,
// with its block and comparison counters.
func newQueryMetrics(m *sql.Meta) *QueryMetrics {
	qm := &QueryMetrics{Meta: *m}
	if m.Exec != nil {
		qm.BlocksRead, qm.BlocksWritten, qm.Comparisons = m.Exec.BlocksRead, m.Exec.BlocksWritten, m.Exec.Comparisons
	}
	return qm
}

// Ending is how a cursor's stream ended, as the one Rows in front of it
// saw it.
type Ending struct {
	// Rows counts the rows the cursor yielded.
	Rows int64
	// Err is what cut the stream short; nil after a drain and after a Close.
	Err error
	// Completed reports that the source itself said io.EOF: every row it had
	// was delivered. False with a nil Err means the cursor was closed early.
	Completed bool
}

// Outcome is what a front end counts an ended statement as: exactly one of
// served, aborted and failed.
type Outcome int

const (
	Served Outcome = iota
	Aborted
	Failed
)

// Outcome classifies an ending — the one rule every front end counts by,
// for statements that ended as cursors and for those that never became
// one (Err set, nothing else). An abort is neither success nor failure,
// and carries no latency sample: the kill switch fired (killed — the
// error it induced is the kill taking effect, not a fault), the caller
// walked away and its cancelled context was seen before a write failed or
// a Close arrived, or the cursor was closed before its last row (a client
// disconnect, a deliberate truncation). Any other error is a failure, a
// deadline included. closeIsServed is for a stream with no last row — a
// subscription — whose caller closing it, or leaving, is how it ends well.
func (e Ending) Outcome(killed, closeIsServed bool) Outcome {
	walkedAway := errors.Is(e.Err, context.Canceled)
	switch {
	case killed:
		return Aborted
	case e.Err != nil && !walkedAway:
		return Failed
	case e.Completed || closeIsServed:
		return Served
	default:
		return Aborted
	}
}

// QueryMetrics is the post-drain metadata of a Rows cursor: how the query
// planned, executed and was served. Remote backends fill the flattened
// counters from their wire trailers; in-process backends additionally
// expose the planned chain and full executor metrics.
type QueryMetrics struct {
	// Meta is the execution record the SQL cursor fills: the planned chain
	// (Plan, nil for window-less statements and for remote backends, which
	// see only Chain, the chain in the paper's notation), the executor
	// metrics (Exec, nil for remote backends), the final-sort disposition
	// and satisfied ORDER BY prefix, the finalize phase where it ran in this
	// process (remote backends see it as the trace's "finalize" span), the
	// parallel degree, the planner's row estimate (0 when unknown), a
	// subscription's watermark and the shared-subplan disposition.
	sql.Meta
	// CacheHit reports that the statement's plan came from the plan cache
	// of the engine that resolved it (a hit, or an attach to a concurrent
	// miss).
	CacheHit bool
	// Route is the cluster routing decision ("scatter", "shuffle",
	// "replica"), "" for single-engine backends.
	Route string
	// ShardsUsed is the number of nodes that executed, 0 for single-engine
	// backends.
	ShardsUsed int
	// Rows counts the rows the cursor yielded.
	Rows int64
	// Queued is the time spent waiting for an admission slot.
	Queued time.Duration
	// Elapsed is the end-to-end time from query start to stream end.
	Elapsed time.Duration
	// Block and comparison counters, summed over every participating node.
	BlocksRead    int64
	BlocksWritten int64
	Comparisons   int64
	// TraceID identifies the query's distributed trace; Trace is the span
	// tree recorded for it — assembled locally by in-process backends,
	// received in the stream trailer by remote ones. Nil when the backend
	// recorded no spans (e.g. a stream closed before its trailer).
	TraceID string
	Trace   *trace.Span
}

// Rows is the incremental result cursor of the Queryer surface, shaped
// after database/sql: Next advances, Scan (or Row) reads the current row,
// Err reports what terminated iteration, Close releases the backend's
// per-query resources early. A fully drained cursor closes itself;
// Metrics is available after the drain (or after Close, when the backend
// can still provide it).
//
// Underneath, a Rows is a row view over the batch its source last handed
// it: Scan reads the column vectors in place and allocates nothing per
// row, Row builds the tuple on demand. NextBatch drains by whole batches
// instead.
//
// A Rows is single-consumer; it is not safe for concurrent use.
type Rows struct {
	src   RowSource
	cols  []storage.Column
	names []string

	batch *stream.Batch   // the source's current batch; nil before the first
	pos   int             // the current row within batch
	cur   storage.Tuple   // the current row as built by Row; nil until asked for
	slab  []storage.Value // what Row carves tuples from: the rest of this batch

	err   error
	count int64
	ended atomic.Bool   // drained, failed or closed: the source has been told
	meta  *QueryMetrics // what it answered
}

// NewRows wraps a backend row source in the public cursor. Backends call
// this; applications receive Rows from Queryer.QueryContext.
func NewRows(src RowSource) *Rows {
	cols := src.Columns()
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	return &Rows{src: src, cols: cols, names: names}
}

// Columns returns the output column names.
func (r *Rows) Columns() []string { return r.names }

// ColumnTypes returns the output schema with types.
func (r *Rows) ColumnTypes() []storage.Column { return r.cols }

// Next advances to the next row, reporting false at end of stream or on
// error (distinguish with Err). The cursor closes itself when the stream
// ends either way.
func (r *Rows) Next() bool {
	r.cur = nil
	if r.batch != nil && r.pos+1 < r.batch.Len() {
		r.pos++
	} else if !r.pull() {
		return false
	}
	r.count++
	return true
}

// Buffered returns how many rows Next will yield before it has to go back
// to the source: the rows of the current batch past the current one. A
// stream writer flushes when it reaches 0 — behind a live source every row
// is the last of its batch, and the next may be a long time coming.
func (r *Rows) Buffered() int {
	if r.batch == nil {
		return 0
	}
	return r.batch.Len() - 1 - r.pos
}

// NextBatch advances to the source's next batch and returns it, reporting
// false at end of stream or on error exactly as Next does. A batch holds
// at most stream.BatchRows(len(Columns())) rows: 64 KiB of 8-byte cells,
// from 256 rows to 4096. The batch belongs to the source and is valid
// until the following Next or NextBatch.
// It is the other way to drain a cursor, not one to mix with Next: rows of
// the current batch Next has not reached yet are skipped. After a
// NextBatch the cursor stands on the batch's first row.
func (r *Rows) NextBatch() (*stream.Batch, bool) {
	if !r.pull() {
		return nil, false
	}
	r.count += int64(r.batch.Len())
	return r.batch, true
}

// pull replaces the current batch with the source's next non-empty one.
func (r *Rows) pull() bool {
	r.batch, r.cur, r.slab = nil, nil, nil
	if r.ended.Load() {
		return false
	}
	for {
		b, err := r.src.NextBatch()
		if err != nil {
			if err != io.EOF {
				r.err = err
			}
			r.end(err == io.EOF)
			return false
		}
		if b.Len() > 0 {
			r.batch, r.pos = b, 0
			return true
		}
	}
}

// Row returns the current row's tuple (valid after a true Next). The
// tuple is owned by the caller and remains valid across further Next
// calls: it is carved from a slab sized, at the batch's first Row call,
// for the rows the batch has left, so a caller that never asks pays
// nothing and one that keeps every row pays one allocation per batch.
func (r *Rows) Row() storage.Tuple {
	if r.cur != nil || r.batch == nil {
		return r.cur
	}
	w := len(r.cols)
	if len(r.slab) < w {
		r.slab = make([]storage.Value, w*(r.batch.Len()-r.pos))
	}
	r.cur, r.slab = r.slab[:w:w], r.slab[w:]
	r.batch.Row(r.cur, r.pos)
	return r.cur
}

// Scan copies the current row into dest, one target per output column.
// Supported targets: *int, *int64, *float64, *string, *bool is not
// supported (the engine has no boolean storage kind), *storage.Value, and
// *any (NULL scans as nil, integers as int64, floats as float64, strings
// as string). Numeric kinds convert to the numeric targets; everything
// converts to *string via the value's display form.
func (r *Rows) Scan(dest ...any) error {
	if r.batch == nil {
		return fmt.Errorf("windowdb: Scan called without a successful Next")
	}
	cols := r.batch.Cols()
	if len(dest) != len(cols) {
		return fmt.Errorf("windowdb: Scan expected %d destinations, got %d", len(cols), len(dest))
	}
	for i, d := range dest {
		if err := scanValue(cols[i].Value(r.pos), d, r.names[i]); err != nil {
			return err
		}
	}
	return nil
}

func scanValue(v storage.Value, dest any, col string) error {
	switch d := dest.(type) {
	case *storage.Value:
		*d = v
		return nil
	case *any:
		switch v.Kind() {
		case storage.KindNull:
			*d = nil
		case storage.KindInt:
			*d = v.Int64()
		case storage.KindFloat:
			*d = v.Float64()
		default:
			*d = v.Str()
		}
		return nil
	case *string:
		if v.IsNull() {
			return fmt.Errorf("windowdb: column %q is NULL, use *any or *storage.Value", col)
		}
		*d = v.String()
		return nil
	}
	if v.IsNull() {
		return fmt.Errorf("windowdb: column %q is NULL, use *any or *storage.Value", col)
	}
	switch d := dest.(type) {
	case *int64:
		switch v.Kind() {
		case storage.KindInt:
			*d = v.Int64()
		case storage.KindFloat:
			*d = int64(v.Float64())
		default:
			return fmt.Errorf("windowdb: column %q (%v) does not scan into *int64", col, v.Kind())
		}
	case *int:
		switch v.Kind() {
		case storage.KindInt:
			*d = int(v.Int64())
		case storage.KindFloat:
			*d = int(v.Float64())
		default:
			return fmt.Errorf("windowdb: column %q (%v) does not scan into *int", col, v.Kind())
		}
	case *float64:
		switch v.Kind() {
		case storage.KindInt:
			*d = float64(v.Int64())
		case storage.KindFloat:
			*d = v.Float64()
		default:
			return fmt.Errorf("windowdb: column %q (%v) does not scan into *float64", col, v.Kind())
		}
	default:
		return fmt.Errorf("windowdb: unsupported Scan destination %T for column %q", dest, col)
	}
	return nil
}

// Err returns the error, if any, that terminated iteration. It is nil
// after a complete drain.
func (r *Rows) Err() error { return r.err }

// Close releases the cursor's backend resources (admission slots, shard
// streams, HTTP bodies). Safe to call any number of times and after a
// full drain.
func (r *Rows) Close() error {
	r.end(false)
	return nil
}

// end tells the source how the stream ended: once, even when a Close from
// another goroutine races the drain it interrupts — a source releases what
// it holds without a guard of its own.
func (r *Rows) end(completed bool) {
	if !r.ended.CompareAndSwap(false, true) {
		return
	}
	r.meta = r.src.End(Ending{Rows: r.count, Err: r.err, Completed: completed})
	if r.meta != nil {
		r.meta.Rows = r.count
	}
}

// Metrics returns the query's execution metadata. It is non-nil once the
// cursor has been drained or closed, provided the backend could still
// observe its trailer (a remote stream closed mid-flight has none). The
// Rows count reflects rows this cursor yielded.
func (r *Rows) Metrics() *QueryMetrics { return r.meta }

// DSN registry: named in-process Queryers for database/sql. The sqldriver
// package resolves non-HTTP DSNs here, so
//
//	windowdb.RegisterDSN("analytics", engine)
//	db, _ := sql.Open("windowdb", "analytics")
//
// plugs an embedded engine (or service, or cluster) into the standard
// ecosystem.
var (
	dsnMu sync.RWMutex
	dsns  = map[string]Queryer{}
)

// RegisterDSN makes q reachable as a database/sql DSN under name,
// replacing any previous registration of that name.
func RegisterDSN(name string, q Queryer) {
	dsnMu.Lock()
	defer dsnMu.Unlock()
	if q == nil {
		delete(dsns, name)
		return
	}
	dsns[name] = q
}

// LookupDSN resolves a name registered with RegisterDSN.
func LookupDSN(name string) (Queryer, bool) {
	dsnMu.RLock()
	defer dsnMu.RUnlock()
	q, ok := dsns[name]
	return q, ok
}
