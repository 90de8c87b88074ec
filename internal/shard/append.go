package shard

// The cluster's ingestion and continuous-query surface.
//
// Appends route the way queries do, in reverse: the coordinator assigns
// one watermark per logical append at its own catalog entry (a stub for
// sharded tables — validation and statistics, no stored rows; the real
// replica for replicated tables), hash-partitions the batch on the shard
// key with the same exec.PartitionRows the registration used, and ships
// each node its partition with the watermark as the node's generation
// lower bound. Every owning node therefore reports the same watermark to
// its subscribers, and a node whose partition of the batch is empty
// simply keeps its old generation — nothing it serves changed.
//
// SUBSCRIBE routes like a scatter: when the inner statement's chain is
// shard-local (its common partition key covers the shard key), no window
// partition spans nodes, so each node maintains its own partition's
// result independently and the coordinator fans the live delta streams
// in as rows arrive. Row identities are node-local; the coordinator
// rewrites each _rid to rid*shards+node — injective across the cluster,
// though no longer the original input position. Chains that are not
// shard-local are rejected: their maintenance state would span nodes.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/service"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/stream"
)

// Append applies one batch of rows to a cluster-registered table: the
// coordinator validates the batch and assigns the watermark — at least
// atLeast, as on a node — then routes each row to its owning node
// (sharded) or the full batch to every node (replicated). Prepared plans survive — only the data generation moves.
// A node failure surfaces after the coordinator's bookkeeping already
// advanced; re-sending the batch is safe for subscribers (generations are
// lower-bounded, not summed) but duplicates rows, so callers should treat
// a failed append as needing table re-registration, not a blind retry.
func (c *Cluster) Append(ctx context.Context, table string, rows []storage.Tuple, atLeast uint64) (service.AppendResponse, error) {
	if len(rows) == 0 {
		return service.AppendResponse{}, errors.New("shard: append without rows")
	}
	c.mu.RLock()
	info := c.tables[strings.ToLower(table)]
	c.mu.RUnlock()
	if info == nil {
		return service.AppendResponse{}, fmt.Errorf("%w %q (not cluster-registered)", catalog.ErrUnknownTable, table)
	}
	// The coordinator's entry assigns the cluster watermark. Validation
	// (arity, column types) happens here, before any node sees the batch.
	start, wm, err := c.coord.AppendAt(info.name, rows, atLeast)
	if err != nil {
		return service.AppendResponse{}, err
	}
	if info.sharded {
		parts := exec.PartitionRows(rows, info.key.IDs(), len(c.shards))
		err = c.eachShard(ctx, func(ctx context.Context, i int, tr Transport) error {
			if len(parts[i]) == 0 {
				return nil
			}
			_, err := tr.Append(ctx, info.name, parts[i], wm)
			return err
		})
	} else {
		err = c.eachShard(ctx, func(ctx context.Context, i int, tr Transport) error {
			_, err := tr.Append(ctx, info.name, rows, wm)
			return err
		})
	}
	if err != nil {
		return service.AppendResponse{}, err
	}
	c.mu.Lock()
	info.rows += int64(len(rows))
	c.mu.Unlock()
	c.appends.Add(1)
	c.rowsAppended.Add(uint64(len(rows)))
	return service.AppendResponse{
		Table: info.name, StartRid: start, RowsAppended: len(rows), Watermark: wm,
	}, nil
}

// streamSubscribe serves a SUBSCRIBE statement cluster-wide. The inner
// statement prepares normally at the coordinator (plan cache included);
// the live cursor then routes: replicated tables go whole to one node
// round-robin (every replica sees every cluster append), shard-local
// chains fan in a live stream per node, and anything else is rejected.
func (c *Cluster) streamSubscribe(ctx context.Context, inner string, qt *clusterTrace) (*windowdb.Rows, error) {
	prep, info, err := c.resolve(ctx, qt, inner)
	if err != nil {
		return nil, err
	}
	// Surface non-maintainable statements (DISTINCT/ORDER BY/LIMIT) with
	// the single-engine error before any node fan-out.
	if _, err := prep.Maintenance(); err != nil {
		return nil, err
	}
	req := service.ShardQueryRequest{Mode: string(ModeFull), Stage: service.Stage{SQL: "SUBSCRIBE " + inner}}
	route, first, n := "scatter", 0, len(c.shards)
	switch {
	case !info.sharded:
		c.replica.Add(1)
		route, first, n = "replica", int(c.rr.Add(1)-1)%len(c.shards), 1
	case prep.ShardLocal(info.key):
		c.scatter.Add(1)
	default:
		return nil, fmt.Errorf("%w: SUBSCRIBE on %q needs a shard-local chain (common partition key covering the shard key %v)",
			sql.ErrBind, prep.Table(), info.keyCols)
	}
	// A subscription holds its nodes' slots for its lifetime.
	if err := c.admit(ctx, qt, first, n); err != nil {
		return nil, err
	}
	streams, streamCancel, err := c.openStreams(ctx, first, n, req)
	if err != nil {
		return nil, err
	}
	cols := streams[0].ColumnTypes()
	ls := &liveSource{
		c: c, cols: cols, streams: streams, streamCancel: streamCancel,
		prep: prep, route: route, qt: qt,
		ridIdx: colIndex(cols, "_rid"), wmIdx: colIndex(cols, "_watermark"),
		ch:   make(chan liveItem),
		done: make(chan struct{}),
	}
	// One row per batch: the fan-in blocks for as long as no node has a
	// delta, and a row must not wait behind one that has not happened.
	ls.batcher = stream.NewBatcher(len(cols), 1, ls.next)
	for i, s := range streams {
		ls.wg.Add(1)
		go ls.pump(i, s)
	}
	qt.Live().SetPhase("waiting for data")
	return windowdb.NewRows(ls), nil
}

func colIndex(cols []storage.Column, name string) int {
	for i, col := range cols {
		if col.Name == name {
			return i
		}
	}
	return -1
}

// liveItem is one fan-in event from a node's live stream: a row, or the
// error/EOF that ended the stream.
type liveItem struct {
	node int
	row  storage.Tuple
	err  error
}

// liveSource fans per-node live subscription streams into the public
// cursor. Unlike scatterSource's in-order concatenation — a live stream
// never ends on its own, so draining node 0 first would never surface
// node 1's deltas — every stream is pumped concurrently into one channel
// and rows emit in arrival order (per-node order is preserved; it is the
// only order a live merge can promise). Each row's _rid is rewritten to
// the cluster-unique encoding rid*shards+node.
type liveSource struct {
	c            *Cluster
	cols         []storage.Column
	streams      []*windowdb.Rows
	streamCancel context.CancelFunc
	prep         *sql.Prepared
	route        string
	qt           *clusterTrace
	ridIdx       int
	wmIdx        int

	ch      chan liveItem
	done    chan struct{}
	wg      sync.WaitGroup
	batcher *stream.Batcher

	ended     int    // node streams that reached io.EOF
	watermark uint64 // max _watermark observed across emitted rows
}

// pump forwards one node stream into the fan-in channel, a row at a time
// (a live stream's batches are single rows). It owns the stream's Close
// (Next and Close on a cursor must share a goroutine); when the source
// ends, the canceled stream context unblocks Next and the closed done
// channel releases the push.
func (ls *liveSource) pump(node int, s *windowdb.Rows) {
	defer ls.wg.Done()
	defer s.Close()
	for {
		it := liveItem{node: node, err: io.EOF}
		if s.Next() {
			it.row, it.err = s.Row(), nil
		} else if err := s.Err(); err != nil {
			it.err = err
		}
		select {
		case ls.ch <- it:
		case <-ls.done:
			return
		}
		if it.err != nil {
			return
		}
	}
}

func (ls *liveSource) Columns() []storage.Column { return ls.cols }

func (ls *liveSource) NextBatch() (*stream.Batch, error) { return ls.batcher.NextBatch() }

func (ls *liveSource) next() (storage.Tuple, error) {
	for {
		if ls.ended == len(ls.streams) {
			return nil, io.EOF
		}
		it := <-ls.ch
		if it.err == io.EOF {
			ls.ended++
			continue
		}
		if it.err != nil {
			return nil, it.err
		}
		row := it.row
		if ls.ridIdx >= 0 && ls.ridIdx < len(row) {
			// Clone before rewriting: local transports share tuple storage
			// with the node's maintainer state.
			row = row.Clone()
			row[ls.ridIdx] = storage.Int(row[ls.ridIdx].Int64()*int64(len(ls.streams)) + int64(it.node))
		}
		if ls.wmIdx >= 0 && ls.wmIdx < len(row) {
			if wm := uint64(row[ls.wmIdx].Int64()); wm > ls.watermark {
				ls.watermark = wm
			}
		}
		ls.qt.Live().AddRowsEmitted(1)
		return row, nil
	}
}

// End stops the pumps, waits until each has closed its node stream — so
// every node's slot and subscription are back before End returns — and
// counts the subscription. A live stream has no final row: its caller
// closing it, or leaving, is its natural end and counts as served, not
// aborted — the one place the cluster asks the ending rule for that.
func (ls *liveSource) End(end windowdb.Ending) *windowdb.QueryMetrics {
	close(ls.done)
	ls.streamCancel()
	ls.wg.Wait()
	meta := mergedMeta(ls.prep, ls.qt, ls.route, len(ls.streams))
	meta.Watermark = ls.watermark
	ls.c.finish(ls.qt, meta, end, nil, true)
	return meta
}
