package windowdb

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/delta"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/stream"
)

// StripSubscribe recognizes a `SUBSCRIBE <stmt>` prefix (case-insensitive,
// whitespace-tolerant) and returns the inner statement. Like EXPLAIN
// ANALYZE, the verb is a front-door prefix, not part of the SQL grammar:
// every backend strips it, prepares the inner statement normally, and
// serves a long-lived maintained cursor instead of a one-shot execution.
func StripSubscribe(src string) (string, bool) {
	s := strings.TrimSpace(src)
	rest, ok := stripKeyword(s, "subscribe")
	if !ok || rest == "" {
		return src, false
	}
	return rest, true
}

// IsInsert reports whether src is an INSERT statement (re-exported from
// the sql package for serving layers that dispatch on it).
func IsInsert(src string) bool { return sql.IsInsert(src) }

// Append validates rows against table's schema and appends them,
// advancing the table's data generation — not the schema generation, so
// prepared statements stay valid — and publishing the batch to live
// subscriptions. It returns the global row index of the first appended
// row and the new data generation (the watermark subscribers will see).
func (e *Engine) Append(table string, rows []storage.Tuple) (startRid int64, watermark uint64, err error) {
	return e.AppendAt(table, rows, 0)
}

// AppendAt is Append with a watermark lower bound: a cluster coordinator
// assigns one generation per logical append and ships it to every owning
// node, so replicas converge on the same watermark. Local callers pass 0.
func (e *Engine) AppendAt(table string, rows []storage.Tuple, atLeast uint64) (int64, uint64, error) {
	entry, err := e.cat.Lookup(table)
	if err != nil {
		return 0, 0, err
	}
	// appendMu serializes the catalog swap with the hub publish so
	// subscribers observe batches in generation order, and so a
	// subscription's register-then-snapshot cannot miss a batch.
	e.appendMu.Lock()
	defer e.appendMu.Unlock()
	start, gen, err := entry.Append(rows, atLeast)
	if err != nil {
		return 0, 0, err
	}
	stored := rows
	if !entry.Stub() {
		// Publish the stored (coerced) rows, not the caller's: maintainers
		// must see exactly what a fresh scan would.
		t := entry.Table()
		stored = t.Rows[start : start+int64(len(rows))]
	}
	e.hub.Publish(delta.Batch{Table: entry.Name, Rows: stored, StartRid: start, Gen: gen})
	return start, gen, nil
}

// DataGeneration returns a table's current data generation.
func (e *Engine) DataGeneration(table string) (uint64, error) {
	entry, err := e.cat.Lookup(table)
	if err != nil {
		return 0, err
	}
	return entry.DataGen(), nil
}

// Subscriptions reports the number of live subscriptions over every table.
func (e *Engine) Subscriptions() int { return e.hub.Subscribers() }

// Subscription is a live maintained cursor over a prepared statement: it
// emits the initial result (rows tagged "init"), then blocks until
// appends land and emits delta batches (rows tagged "append"/"upsert",
// each carrying the data-generation watermark in the _meta columns).
// NextBatch returns io.EOF only if the subscription is closed; a lagged
// subscription (delivery buffer overflow) ends with delta.ErrLagged.
// Safe for the usual cursor discipline: one goroutine calls NextBatch, any
// goroutine may Close.
type Subscription struct {
	ctx  context.Context
	sub  *delta.Sub
	m    *delta.Maintainer
	cols []storage.Column

	queue []storage.Tuple
	pos   int
	b     *stream.Batcher // one row per batch: the next may be a long time coming

	mu        sync.Mutex
	watermark uint64
	scanned   int64
	fullRows  int64
	steps     []int64
	start     time.Time
}

// SubscribeStatement opens a subscription on a prepared statement. The
// statement must be maintainable (no DISTINCT/ORDER BY/LIMIT — the error
// is ErrBind-classified otherwise) and its table must hold local rows
// (cluster coordinators serve subscriptions through shard fan-in, not
// through their schema-only stubs).
func (e *Engine) SubscribeStatement(ctx context.Context, p *sql.Prepared) (*Subscription, error) {
	info, err := p.Maintenance()
	if err != nil {
		return nil, err
	}
	if info.Entry.Stub() {
		return nil, fmt.Errorf("windowdb: SUBSCRIBE on stub table %q (no local rows)", p.Table())
	}
	// Register the subscription and snapshot the table under appendMu:
	// Publish holds the same mutex, so every batch is either in the
	// snapshot (gen ≤ G0, skipped by the maintainer) or queued on the
	// subscription channel — none can fall between.
	e.appendMu.Lock()
	sub := e.hub.Subscribe(p.Table(), 0)
	t, gen := info.Entry.Snapshot()
	e.appendMu.Unlock()
	m, err := delta.NewMaintainer(info, t, gen) // bootstrap outside the lock
	if err != nil {
		sub.Close()
		return nil, err
	}
	s := &Subscription{
		ctx:       ctx,
		sub:       sub,
		m:         m,
		cols:      m.OutputColumns(),
		queue:     m.Initial(),
		watermark: gen,
		start:     time.Now(),
	}
	s.b = stream.NewBatcher(len(s.cols), 1, s.next)
	return s, nil
}

// Columns returns the output schema: the statement's projection plus the
// _rid/_op/_watermark meta columns.
func (s *Subscription) Columns() []storage.Column { return s.cols }

// NextBatch returns the next output row as a one-row batch, blocking
// between delta batches until an append lands or the context is canceled.
func (s *Subscription) NextBatch() (*stream.Batch, error) { return s.b.NextBatch() }

func (s *Subscription) next() (storage.Tuple, error) {
	for {
		if s.pos < len(s.queue) {
			row := s.queue[s.pos]
			s.pos++
			return row, nil
		}
		select {
		case <-s.ctx.Done():
			return nil, s.ctx.Err()
		case b, ok := <-s.sub.Chan():
			if !ok {
				if err := s.sub.Err(); err != nil {
					return nil, err
				}
				return nil, io.EOF
			}
			u, err := s.m.Apply(b)
			if err != nil {
				s.sub.Close()
				return nil, err
			}
			s.mu.Lock()
			s.watermark = u.Watermark
			s.scanned += u.RowsScanned
			s.fullRows = u.FullRows
			if len(s.steps) < len(u.Steps) {
				s.steps = append(s.steps, make([]int64, len(u.Steps)-len(s.steps))...)
			}
			for i, n := range u.Steps {
				s.steps[i] += n
			}
			s.mu.Unlock()
			s.queue, s.pos = u.Rows, 0
		}
	}
}

// Close ends the subscription; pending and future batches are dropped.
func (s *Subscription) Close() error {
	s.sub.Close()
	return nil
}

// Meta renders the subscription's maintenance accounting as an execution
// record: one step per maintained spec with the rows it scanned
// across all applied batches — the numbers that prove incrementality.
func (s *Subscription) Meta() *sql.Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	u := delta.Update{Steps: append([]int64{}, s.steps...)}
	return &sql.Meta{
		FinalSort:   "none",
		Parallelism: 1,
		Exec:        u.Metrics(),
		EstRows:     s.fullRows,
		Watermark:   s.watermark,
	}
}

// insertRows executes a parsed-from-text INSERT and returns its one-row
// summary cursor: [table, rows_appended, watermark].
func (e *Engine) insertRows(ctx context.Context, src string) (*Rows, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ins, err := sql.ParseInsert(src)
	if err != nil {
		return nil, err
	}
	_, wm, err := e.Append(ins.Table, ins.Rows)
	if err != nil {
		return nil, err
	}
	return NewInsertRows(ins.Table, len(ins.Rows), wm), nil
}

// NewInsertRows builds the one-row INSERT summary cursor every backend
// returns: [table STRING, rows_appended INT, watermark INT].
func NewInsertRows(table string, appended int, watermark uint64) *Rows {
	return newStaticRows([]storage.Column{
		{Name: "table", Type: storage.TypeString},
		{Name: "rows_appended", Type: storage.TypeInt},
		{Name: "watermark", Type: storage.TypeInt},
	}, []storage.Tuple{{
		storage.StringVal(table),
		storage.Int(int64(appended)),
		storage.Int(int64(watermark)),
	}})
}

// subscribeRows opens a subscription cursor on the Rows surface.
func (e *Engine) subscribeRows(ctx context.Context, inner string) (*Rows, error) {
	p, _, err := e.Resolve(ctx, inner)
	if err != nil {
		return nil, err
	}
	s, err := e.SubscribeStatement(ctx, p)
	if err != nil {
		return nil, err
	}
	return NewRows(subSource{s}), nil
}

// subSource adapts a Subscription to the RowSource contract.
type subSource struct{ s *Subscription }

func (ss subSource) Columns() []storage.Column { return ss.s.Columns() }

func (ss subSource) NextBatch() (*stream.Batch, error) { return ss.s.NextBatch() }

func (ss subSource) End(Ending) *QueryMetrics {
	meta := NewQueryMetrics(ss.s.Meta())
	meta.Elapsed = time.Since(ss.s.start)
	_ = ss.s.Close()
	return meta
}
