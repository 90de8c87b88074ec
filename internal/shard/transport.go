package shard

import (
	"context"
	"io"

	"repro"
	"repro/internal/attrs"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Mode selects how much of a statement a shard node executes.
type Mode string

const (
	// ModeLocal executes the shard-local part: WHERE, chain, projection —
	// no DISTINCT/ORDER BY/LIMIT, which the coordinator applies over the
	// concatenation of every shard's output.
	ModeLocal Mode = "local"
	// ModeFull executes the entire statement; used for replicated tables
	// where a single node serves the whole query.
	ModeFull Mode = "full"
)

// QueryOutcome is the observations of one shard node's execution that the
// coordinator aggregates.
type QueryOutcome struct {
	CacheHit      bool
	FinalSort     string
	BlocksRead    int64
	BlocksWritten int64
	Comparisons   int64
	// Trace is the node's span subtree for this execution, when the node
	// recorded one; the coordinator grafts it under its own per-node span.
	Trace *trace.Span
}

// RowStream is one shard node's incremental query response: rows pulled
// one at a time, io.EOF at end of stream, and the node's execution
// observations (Outcome) available once the stream has ended. Closing a
// half-drained stream tells the node to stop — over HTTP by closing the
// response body, in-process by closing the node's cursor — which releases
// the node's admission slot.
type RowStream interface {
	// Columns returns the streamed output schema.
	Columns() []storage.Column
	// Next returns the next row, io.EOF at end of stream, or the error
	// that cut the stream.
	Next() (storage.Tuple, error)
	// Outcome returns the node's execution observations; nil until the
	// stream ended cleanly.
	Outcome() *QueryOutcome
	// Close releases the stream.
	Close() error
}

// Transport reaches one shard node. Two implementations exist: Local wraps
// an in-process service.Service (tests, benches and single-binary
// scale-up), HTTP rides the /shard/* routes of a remote windserve so
// multiple processes form a real cluster. All methods must be safe for
// concurrent use — the coordinator scatters to every shard at once.
type Transport interface {
	// QueryStream executes a statement and streams its rows: the scatter
	// path's transport primitive, bounding coordinator memory by what is
	// in flight instead of the node's whole response. The request carries
	// the SQL, the Mode, and optionally the coordinator's plan Fingerprint
	// so the node resolves its plan cache without re-normalizing the text.
	QueryStream(ctx context.Context, req service.ShardQueryRequest) (RowStream, error)
	// TableStream streams the node's rows of a table — the gather path of
	// chains with no usable shuffle key. Incremental on the wire: the
	// coordinator appends rows as they arrive instead of decoding a whole
	// response body.
	TableStream(ctx context.Context, name string) (RowStream, error)
	// ShuffleRun executes one non-final stage of a per-segment distributed
	// chain on the node (service.RunShuffleStep): run the segment, then
	// re-shuffle the output directly to the peer nodes. Returns once every
	// peer has ingested — the coordinator's round barrier.
	ShuffleRun(ctx context.Context, req service.ShuffleRunRequest) (*service.ShuffleRunResult, error)
	// SegmentStream opens the final shuffle segment's row stream over the
	// node's buffered shuffle input (service.StreamSegment); the
	// coordinator merge-concatenates these exactly like scatter streams.
	SegmentStream(ctx context.Context, req service.ShardQueryRequest) (RowStream, error)
	// AcceptShuffle delivers one re-shuffled row batch into the node's
	// shuffle inbox. Nodes address each other directly over their own data
	// plane; this entry point exists so in-process clusters (and tests
	// wrapping transports) can route peer deliveries without sockets.
	AcceptShuffle(ctx context.Context, b *service.ShuffleBatch) error
	// ShuffleDrop discards the node's buffered shuffle state for id — the
	// coordinator's cleanup when a stage fails mid-shuffle.
	ShuffleDrop(ctx context.Context, id string) error
	// Register installs a table (partition or replica) on the node.
	Register(ctx context.Context, name string, t *storage.Table) error
	// Append applies one batch of rows to the node's partition (or
	// replica) of a table. watermark is the coordinator-assigned data
	// generation for the logical append — the node's generation converges
	// on max(own+1, watermark), so every owning node reports the same
	// watermark to its subscribers.
	Append(ctx context.Context, table string, rows []storage.Tuple, watermark uint64) (service.AppendResponse, error)
	// Subscribe opens a live maintained cursor on the node: the SUBSCRIBE
	// statement's initial result streams first, then the stream blocks and
	// delta rows arrive as appends land. src carries the SUBSCRIBE prefix.
	// The stream ends only when closed, the context is canceled, or the
	// node kills the query.
	Subscribe(ctx context.Context, src string) (RowStream, error)
	// Distinct returns the node-local distinct count of the attribute set,
	// feeding the coordinator's statistics stubs.
	Distinct(ctx context.Context, table string, set attrs.Set) (int64, error)
	// Stats snapshots the node's service counters.
	Stats(ctx context.Context) (service.Snapshot, error)
	// Health reports nil when the node is serving.
	Health(ctx context.Context) error
	// LiveQueries snapshots the node's in-flight query registry, newest
	// first; the coordinator's /debug/queries merges each node's entries
	// under the owning query by trace ID.
	LiveQueries(ctx context.Context) ([]trace.QueryInfo, error)
	// KillQuery cancels the node's in-flight query with the given registry
	// ID; false (with nil error) when the node holds no such query.
	KillQuery(ctx context.Context, id string) (bool, error)
}

// Local is the in-process transport: a shard node living in this process
// as a service.Service over its own engine (private catalog, spill store,
// unit memory M). Used by tests, benches, and single-binary scale-up.
type Local struct {
	svc *service.Service
}

// NewLocal wraps an in-process service as a shard node.
func NewLocal(svc *service.Service) *Local { return &Local{svc: svc} }

// Service returns the wrapped service (tests inspect its counters).
func (l *Local) Service() *service.Service { return l.svc }

// QueryStream implements Transport: the node's service cursor, adapted.
// The node-side admission slot is held until the stream is drained or
// closed, exactly as for a remote node.
func (l *Local) QueryStream(ctx context.Context, req service.ShardQueryRequest) (RowStream, error) {
	var (
		rows *windowdb.Rows
		err  error
	)
	if Mode(req.Mode) == ModeLocal {
		rows, err = l.svc.StreamShardLocal(ctx, req.SQL, req.Fingerprint, req.SubplanFP)
	} else {
		rows, err = l.svc.QueryContext(ctx, req.SQL)
	}
	if err != nil {
		return nil, err
	}
	return &rowsStream{rows: rows}, nil
}

// rowsStream adapts a windowdb.Rows to the transport's RowStream shape.
type rowsStream struct {
	rows    *windowdb.Rows
	outcome *QueryOutcome
}

func (rs *rowsStream) Columns() []storage.Column { return rs.rows.ColumnTypes() }

func (rs *rowsStream) Next() (storage.Tuple, error) {
	if rs.rows.Next() {
		return rs.rows.Row(), nil
	}
	if err := rs.rows.Err(); err != nil {
		return nil, err
	}
	rs.finish()
	return nil, io.EOF
}

func (rs *rowsStream) finish() {
	if rs.outcome != nil {
		return
	}
	m := rs.rows.Metrics()
	if m == nil {
		return
	}
	rs.outcome = &QueryOutcome{
		CacheHit:      m.CacheHit,
		FinalSort:     m.FinalSort,
		BlocksRead:    m.BlocksRead,
		BlocksWritten: m.BlocksWritten,
		Comparisons:   m.Comparisons,
		Trace:         m.Trace,
	}
}

func (rs *rowsStream) Outcome() *QueryOutcome { return rs.outcome }

func (rs *rowsStream) Close() error { return rs.rows.Close() }

// TableStream implements Transport: an in-process stream over the node's
// registered (immutable) table — no rows are copied; consumers must not
// mutate the yielded tuples.
func (l *Local) TableStream(ctx context.Context, name string) (RowStream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t, err := l.svc.Engine().Table(name)
	if err != nil {
		return nil, err
	}
	return &tableStream{ctx: ctx, cols: t.Schema.Columns, rows: t.Rows}, nil
}

// tableStream yields a materialized table's rows as a RowStream.
type tableStream struct {
	ctx     context.Context
	cols    []storage.Column
	rows    []storage.Tuple
	pos     int
	outcome *QueryOutcome
}

func (ts *tableStream) Columns() []storage.Column { return ts.cols }

func (ts *tableStream) Next() (storage.Tuple, error) {
	if ts.pos >= len(ts.rows) {
		if ts.outcome == nil {
			ts.outcome = &QueryOutcome{}
		}
		return nil, io.EOF
	}
	if ts.pos%1024 == 0 {
		if err := ts.ctx.Err(); err != nil {
			return nil, err
		}
	}
	t := ts.rows[ts.pos]
	ts.pos++
	return t, nil
}

func (ts *tableStream) Outcome() *QueryOutcome { return ts.outcome }

func (ts *tableStream) Close() error {
	ts.rows = nil
	return nil
}

// ShuffleRun implements Transport: the node executes the stage in-process,
// delivering re-shuffled partitions through the request's Deliver hook
// (the cluster wires it to the peer transports' AcceptShuffle).
func (l *Local) ShuffleRun(ctx context.Context, req service.ShuffleRunRequest) (*service.ShuffleRunResult, error) {
	return l.svc.RunShuffleStep(ctx, req, nil)
}

// SegmentStream implements Transport: the node's final-segment cursor,
// adapted; the admission slot is held until the stream is drained or
// closed, exactly as for QueryStream.
func (l *Local) SegmentStream(ctx context.Context, req service.ShardQueryRequest) (RowStream, error) {
	rows, err := l.svc.StreamSegment(ctx, req)
	if err != nil {
		return nil, err
	}
	return &rowsStream{rows: rows}, nil
}

// AcceptShuffle implements Transport: straight into the node's inbox.
func (l *Local) AcceptShuffle(ctx context.Context, b *service.ShuffleBatch) error {
	return l.svc.ShuffleAccept(ctx, b)
}

// ShuffleDrop implements Transport.
func (l *Local) ShuffleDrop(ctx context.Context, id string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	l.svc.ShuffleDrop(id)
	return nil
}

// Register implements Transport.
func (l *Local) Register(ctx context.Context, name string, t *storage.Table) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	l.svc.Engine().Register(name, t)
	return nil
}

// Append implements Transport: the node-side service append — validation,
// data-generation bump, subscription wake, metering.
func (l *Local) Append(ctx context.Context, table string, rows []storage.Tuple, watermark uint64) (service.AppendResponse, error) {
	start, wm, err := l.svc.Append(ctx, table, rows, watermark)
	if err != nil {
		return service.AppendResponse{}, err
	}
	return service.AppendResponse{Table: table, StartRid: start, RowsAppended: len(rows), Watermark: wm}, nil
}

// Subscribe implements Transport: the node's live subscription cursor,
// adapted. The node-side admission slot and registry entry are held for
// the subscription's lifetime, exactly as for a remote node.
func (l *Local) Subscribe(ctx context.Context, src string) (RowStream, error) {
	rows, err := l.svc.QueryContext(ctx, src)
	if err != nil {
		return nil, err
	}
	return &rowsStream{rows: rows}, nil
}

// Distinct implements Transport.
func (l *Local) Distinct(ctx context.Context, table string, set attrs.Set) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	entry, err := l.svc.Engine().Stats(table)
	if err != nil {
		return 0, err
	}
	return entry.Distinct(set), nil
}

// Stats implements Transport.
func (l *Local) Stats(ctx context.Context) (service.Snapshot, error) {
	if err := ctx.Err(); err != nil {
		return service.Snapshot{}, err
	}
	return l.svc.Stats(), nil
}

// Health implements Transport.
func (l *Local) Health(ctx context.Context) error { return ctx.Err() }

// LiveQueries implements Transport.
func (l *Local) LiveQueries(ctx context.Context) ([]trace.QueryInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.svc.Registry().Snapshot(), nil
}

// KillQuery implements Transport.
func (l *Local) KillQuery(ctx context.Context, id string) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return l.svc.Registry().Kill(id), nil
}
