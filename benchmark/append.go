package main

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	windowdb "repro"
	"repro/internal/datagen"
	"repro/internal/delta"
	"repro/internal/storage"
)

// appendTimeout bounds the wait for a batch's delta; passing it is a failed
// operation, never a hang.
const appendTimeout = 30 * time.Second

// appendState drives append_subscribe. One epoch is sz.EpochOps
// operations on a fresh engine: register the base table, open one
// SUBSCRIBE cursor on Q6 read by its own goroutine, then append hot-key
// batches — waiting after each for the subscriber to read the last delta
// row of that batch — with a full Q6 every QueryEvery-th operation.
// Starting every epoch from the base table keeps the run stationary: a
// table that only grew would make a longer run measure a bigger table.
type appendState struct {
	sz   sizes
	gen  datagen.WebSalesConfig
	seed int64
	base *storage.Table
	// exp comes from the reference pass and must be set before the first
	// operation: exp.DeltaRows[k] is how the subscriber recognises the
	// last delta row of an epoch's k-th batch (the cursor carries no
	// end-of-batch marker).
	exp *appendExpect

	ep *appendEpoch
}

// appendEpoch is the live state of one epoch.
type appendEpoch struct {
	eng    *windowdb.Engine
	cancel context.CancelFunc
	rows   *windowdb.Rows
	stream *datagen.AppendStream
	batch  int // batches appended so far

	// expect is the row count the subscriber reads before it signals; the
	// appender stores it before each Append (and before the initial
	// snapshot), the subscriber loads it after receiving rows.
	expect atomic.Int64
	signal chan deliver // buffered 1: one outstanding batch at a time
	done   chan struct{}
	// view is the subscriber's materialized result, row id → row hash,
	// kept on checked epochs to prove the deltas add up to the full query.
	view map[int64]uint64
}

// deliver is the subscriber's report that a batch has been fully read.
type deliver struct {
	at        time.Time
	watermark uint64
	err       error
}

// newEngine returns a fresh engine holding the base table.
func (a *appendState) newEngine() *windowdb.Engine {
	eng := windowdb.New(windowdb.Config{SortMemBytes: 64 << 20, BlockSize: blockSize, Parallelism: 1})
	eng.Register("web_sales", a.base)
	return eng
}

// newStream restarts the epoch's deterministic batch sequence.
func (a *appendState) newStream() *datagen.AppendStream {
	return datagen.NewAppendStream(datagen.AppendStreamConfig{Base: a.gen, Seed: a.seed + 1, HotItems: a.sz.HotItems})
}

// isQuery reports whether the operation at epoch position slot is the
// full Q6 (every QueryEvery-th) rather than an append.
func (a *appendState) isQuery(slot int) bool { return (slot+1)%a.sz.QueryEvery == 0 }

func (a *appendState) op(ctx context.Context, i int, check bool) sample {
	slot := i % a.sz.EpochOps
	if slot == 0 {
		a.endEpoch()
		if err := a.beginEpoch(ctx, check); err != nil {
			return sample{Slot: slot, Kind: opAppend, Err: err, Start: time.Now()}
		}
	}
	if a.ep == nil {
		return sample{Slot: slot, Kind: opAppend, Err: errors.New("append_subscribe: epoch did not start"), Start: time.Now()}
	}
	var sm sample
	if a.isQuery(slot) {
		sm = drain(ctx, a.ep.eng, sqlQ6Sub, check)
		sm.Slot = slot
	} else {
		sm = a.appendOne(slot)
	}
	if check && slot == a.sz.EpochOps-1 && sm.Err == nil {
		// The deltas of a whole epoch must add up to the full query.
		if rows, sum := a.ep.viewSum(); rows != a.exp.Final.Rows || sum != a.exp.Final.Sum {
			sm.Err = fmt.Errorf("append_subscribe: subscriber view (%d rows, sum %x) differs from the full query (%d rows, sum %x)",
				rows, sum, a.exp.Final.Rows, a.exp.Final.Sum)
		}
	}
	return sm
}

// beginEpoch registers the base table on a fresh engine, opens the
// subscription and waits for the subscriber to read the initial snapshot.
func (a *appendState) beginEpoch(ctx context.Context, check bool) error {
	ep := &appendEpoch{
		eng:    a.newEngine(),
		signal: make(chan deliver, 1),
		done:   make(chan struct{}),
		stream: a.newStream(),
	}
	if check {
		ep.view = make(map[int64]uint64, a.base.Len())
	}
	subCtx, cancel := context.WithCancel(ctx)
	ep.cancel = cancel
	ep.expect.Store(int64(a.base.Len()))
	rows, err := ep.eng.QueryContext(subCtx, "SUBSCRIBE "+sqlQ6Sub)
	if err != nil {
		cancel()
		return fmt.Errorf("append_subscribe: subscribe: %w", err)
	}
	ep.rows = rows
	go ep.subscribe(subCtx)
	a.ep = ep
	if d := ep.await(); d.err != nil {
		a.endEpoch()
		return fmt.Errorf("append_subscribe: initial snapshot: %w", d.err)
	}
	return nil
}

// subscribe is the reader goroutine: it counts delta rows and signals the
// appender when the expected number for the outstanding batch has been
// read. It exits when the cursor ends (endEpoch cancels its context).
func (ep *appendEpoch) subscribe(ctx context.Context) {
	defer close(ep.done)
	ncols := len(ep.rows.Columns())
	ridCol, wmCol := ncols-3, ncols-1
	var n int64
	for ep.rows.Next() {
		row := ep.rows.Row()
		n++
		if ep.view != nil {
			ep.view[row[ridCol].Int64()] = hashRow(row[:ridCol])
		}
		if n == ep.expect.Load() {
			n = 0
			select {
			case ep.signal <- deliver{at: time.Now(), watermark: uint64(row[wmCol].Int64())}:
			case <-ctx.Done(): // the appender gave up on this epoch
				return
			}
		}
	}
}

// await blocks until the subscriber reports the outstanding batch read.
func (ep *appendEpoch) await() deliver {
	timer := time.NewTimer(appendTimeout)
	defer timer.Stop()
	select {
	case d := <-ep.signal:
		return d
	case <-ep.done:
		return deliver{at: time.Now(), err: fmt.Errorf("subscription ended: %v", ep.rows.Err())}
	case <-timer.C:
		return deliver{at: time.Now(), err: errors.New("timed out waiting for the batch's delta rows")}
	}
}

// appendOne appends the epoch's next batch and waits for its delta.
func (a *appendState) appendOne(slot int) sample {
	ep := a.ep
	sm := sample{Kind: opAppend, Slot: slot, Start: time.Now()}
	if a.exp == nil || ep.batch >= len(a.exp.DeltaRows) {
		sm.Err = fmt.Errorf("append_subscribe: no expected delta size for batch %d", ep.batch)
		return sm
	}
	batch := ep.stream.Next(a.sz.BatchRows)
	ep.expect.Store(a.exp.DeltaRows[ep.batch])
	ep.batch++
	sm.Start = time.Now()
	_, wm, err := ep.eng.Append("web_sales", batch)
	sm.CallMs = msSince(sm.Start)
	if err != nil {
		sm.Err, sm.Ms = err, sm.CallMs
		return sm
	}
	d := ep.await()
	sm.Ms = float64(d.at.Sub(sm.Start)) / float64(time.Millisecond)
	sm.Rows = a.exp.DeltaRows[ep.batch-1]
	switch {
	case d.err != nil:
		sm.Err = d.err
	case d.watermark != wm:
		sm.Err = fmt.Errorf("append_subscribe: last delta row carries watermark %d, append returned %d", d.watermark, wm)
	}
	return sm
}

// endEpoch closes the subscription and waits for the reader to exit.
func (a *appendState) endEpoch() {
	if a.ep == nil {
		return
	}
	// Cancel first and close only after the reader has exited: a Rows
	// cursor is single-consumer.
	a.ep.cancel()
	<-a.ep.done
	_ = a.ep.rows.Close() // only read from, and already ended by the cancel
	a.ep = nil
}

// viewSum folds the subscriber's materialized view into the same
// order-insensitive checksum a drained full query produces.
func (ep *appendEpoch) viewSum() (rows int64, sum uint64) {
	for _, h := range ep.view {
		sum += h
	}
	return int64(len(ep.view)), sum
}

// appendExpect is what the reference pass establishes for one epoch.
type appendExpect struct {
	DeltaRows []int64 // per batch
	// Query[slot] is the expected full-Q6 result at each query position;
	// Final is the full result after the last operation, which the
	// subscriber's view must equal.
	Query map[int]expected
	Final expected
	// Maintenance timings taken by calling the delta package directly.
	BootstrapMs float64
	ApplyMs     []float64
	ScannedFrac float64
}

// appendReference replays one epoch on an independent engine (PSQL plans,
// unlimited reorder memory): it appends the same batches, maintains Q6
// with a delta.Maintainer driven directly to learn how many delta rows
// each batch produces, and runs the full query at every query position.
func appendReference(a *appendState) (*appendExpect, error) {
	eng := referenceEngine(map[string]*storage.Table{"web_sales": a.base})
	prep, err := eng.Prepare(sqlQ6Sub)
	if err != nil {
		return nil, fmt.Errorf("append reference: %w", err)
	}
	info, err := prep.Maintenance()
	if err != nil {
		return nil, fmt.Errorf("append reference: %w", err)
	}
	snap, snapGen := info.Entry.Snapshot()
	t0 := time.Now()
	m, err := delta.NewMaintainer(info, snap, snapGen)
	if err != nil {
		return nil, fmt.Errorf("append reference: bootstrap: %w", err)
	}
	exp := &appendExpect{Query: map[int]expected{}, BootstrapMs: msSince(t0)}
	stream := a.newStream()
	ctx := context.Background()
	var scanned, full int64
	for slot := 0; slot < a.sz.EpochOps; slot++ {
		if a.isQuery(slot) {
			sm := drain(ctx, eng, sqlQ6Sub, true)
			if sm.Err != nil {
				return nil, fmt.Errorf("append reference: query at slot %d: %w", slot, sm.Err)
			}
			exp.Query[slot] = expected{Rows: sm.Rows, Sum: sm.Sum}
			continue
		}
		rows := stream.Next(a.sz.BatchRows)
		start, wm, err := eng.Append("web_sales", rows)
		if err != nil {
			return nil, fmt.Errorf("append reference: slot %d: %w", slot, err)
		}
		t1 := time.Now()
		u, err := m.Apply(delta.Batch{Table: "web_sales", Rows: rows, StartRid: start, Gen: wm})
		if err != nil {
			return nil, fmt.Errorf("append reference: maintain slot %d: %w", slot, err)
		}
		exp.ApplyMs = append(exp.ApplyMs, msSince(t1))
		exp.DeltaRows = append(exp.DeltaRows, int64(len(u.Rows)))
		scanned += u.RowsScanned
		full += u.FullRows
	}
	if full > 0 {
		exp.ScannedFrac = float64(scanned) / float64(full)
	}
	sm := drain(ctx, eng, sqlQ6Sub, true)
	if sm.Err != nil {
		return nil, fmt.Errorf("append reference: final query: %w", sm.Err)
	}
	exp.Final = expected{Rows: sm.Rows, Sum: sm.Sum}
	return exp, nil
}

// engineAt builds an engine holding the table as it stands just before
// epoch position slot: the base rows plus every batch appended by then.
func (a *appendState) engineAt(slot int) (*windowdb.Engine, error) {
	eng, stream := a.newEngine(), a.newStream()
	for i := 0; i < slot; i++ {
		if a.isQuery(i) {
			continue
		}
		if _, _, err := eng.Append("web_sales", stream.Next(a.sz.BatchRows)); err != nil {
			return nil, fmt.Errorf("append_subscribe: grow table: %w", err)
		}
	}
	return eng, nil
}
