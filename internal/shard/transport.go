package shard

import (
	"bytes"
	"context"

	"repro"
	"repro/internal/attrs"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Mode selects how much of a statement a shard node executes.
type Mode string

const (
	// ModeFull executes the entire statement as the node plans it: a
	// replicated table's query, which a single node serves whole, or a
	// SUBSCRIBE's live cursor.
	ModeFull Mode = "full"
	// ModeSegment executes the last stage of the shipped plan — its last
	// segment, over the node's shuffle inbox or its own partition — of a
	// statement over a sharded table: WHERE, chain, projection, no
	// DISTINCT/ORDER BY/LIMIT, which the coordinator applies over the
	// concatenation of every node's output.
	ModeSegment Mode = "segment"
)

// Transport reaches one shard node. Two implementations exist: Local wraps
// an in-process service.Service (tests, benches and single-binary
// scale-up), HTTP rides the /shard/* routes of a remote windserve so
// multiple processes form a real cluster. All methods must be safe for
// concurrent use — the coordinator scatters to every shard at once.
//
// Rows leave a node as the cursor every backend hands out: the one stream
// method returns a *windowdb.Rows whose batches are the node's own (a Local
// node's cursor batches, an HTTP node's decoded frames), whose Metrics are
// the node's execution observations once it has drained, and whose Close
// tells the node to stop — over HTTP by closing the response body,
// in-process by closing the node's cursor — releasing its admission slot.
type Transport interface {
	// QueryStream opens one of the node's row streams
	// (service.ShardStream), bounding coordinator memory by what is in
	// flight instead of the node's whole response. The request's Mode picks
	// it: a replicated table's or a SUBSCRIBE's whole statement, or the last
	// stage of a statement over a sharded table, which the coordinator
	// merge-concatenates.
	// A subscription's stream ends only when closed, the context is
	// canceled, or the node kills the query.
	QueryStream(ctx context.Context, req service.ShardQueryRequest) (*windowdb.Rows, error)
	// ShuffleRun executes one stage before the last of a statement over a
	// sharded table on the node (service.RunShuffleStep): run the segment, then
	// re-shuffle the output directly to the peer nodes. Returns once every
	// peer has ingested — the coordinator's round barrier.
	ShuffleRun(ctx context.Context, req service.ShuffleRunRequest) (*service.ShuffleRunResult, error)
	// AcceptShuffle reads one peer's frame body into the node's shuffle
	// inbox. Nodes address each other directly over their own data plane;
	// this entry point exists so in-process clusters (and tests wrapping
	// transports) can route peer deliveries without sockets.
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

// QueryStream implements Transport: the node's service cursor. The
// node-side admission slot (and a subscription's registry entry) is held
// until the stream is drained or closed, exactly as for a remote node.
func (l *Local) QueryStream(ctx context.Context, req service.ShardQueryRequest) (*windowdb.Rows, error) {
	return l.svc.ShardStream(ctx, req)
}

// ShuffleRun implements Transport: the node executes the stage in-process,
// delivering its bodies through the request's Deliver hook (the cluster
// wires it to the peer transports' AcceptShuffle).
func (l *Local) ShuffleRun(ctx context.Context, req service.ShuffleRunRequest) (*service.ShuffleRunResult, error) {
	return l.svc.RunShuffleStep(ctx, req)
}

// AcceptShuffle implements Transport: ShuffleIngest, as /shard/shuffle.
func (l *Local) AcceptShuffle(ctx context.Context, b *service.ShuffleBatch) error {
	return l.svc.ShuffleIngest(ctx, bytes.NewReader(b.Body))
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
	return l.svc.Append(ctx, table, rows, watermark)
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
func (l *Local) Health(ctx context.Context) error { return l.svc.Health(ctx) }

// LiveQueries implements Transport.
func (l *Local) LiveQueries(ctx context.Context) ([]trace.QueryInfo, error) {
	return l.svc.LiveQueries(ctx)
}

// KillQuery implements Transport.
func (l *Local) KillQuery(ctx context.Context, id string) (bool, error) {
	return l.svc.KillQuery(ctx, id)
}
