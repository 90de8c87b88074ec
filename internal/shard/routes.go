package shard

// The routes a statement over a cluster-registered table takes, and the
// sources that stream them back: streamQuery picks the route; the shuffle
// driver (scatter being its zero-round case) and the replica driver open
// the node streams; emitStreams hands them to scatterSource's in-order
// merge, or drains them into the coordinator's finalize cursor.

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/service"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/trace"
)

// streamQuery prepares, routes and opens the statement's row stream.
func (c *Cluster) streamQuery(ctx context.Context, qt *clusterTrace) (*windowdb.Rows, error) {
	src := qt.SQL
	if inner, ok := windowdb.StripSubscribe(src); ok {
		return c.streamSubscribe(ctx, inner, qt)
	}
	prep, info, err := c.resolve(ctx, qt, src)
	if err != nil {
		return nil, err
	}
	if !info.sharded {
		return c.streamReplica(ctx, src, prep, qt)
	}
	return c.streamShuffle(ctx, src, prep, info, qt)
}

// resolve plans src and looks up the cluster registration of its table.
func (c *Cluster) resolve(ctx context.Context, qt *clusterTrace, src string) (*sql.Prepared, *tableInfo, error) {
	prep, err := qt.Resolve(ctx, src)
	if err != nil {
		return nil, nil, err
	}
	c.mu.RLock()
	info := c.tables[strings.ToLower(prep.Table())]
	c.mu.RUnlock()
	if info == nil {
		// Prepared against the coordinator catalog but never
		// cluster-registered: nothing owns rows for it.
		return nil, nil, fmt.Errorf("%w %q (not cluster-registered)", catalog.ErrUnknownTable, prep.Table())
	}
	return prep, info, nil
}

// openStreams opens req's row stream on nodes first..first+n-1 concurrently
// (the nodes execute their chains in parallel).
// The first open failure cancels and closes the others, and the error is
// picked as in eachShard. The returned
// cancel stops every stream and must be called when the merge finishes.
func (c *Cluster) openStreams(ctx context.Context, first, n int, req service.ShardQueryRequest) ([]*windowdb.Rows, context.CancelFunc, error) {
	ctx, cancel := context.WithCancel(ctx)
	streams := make([]*windowdb.Rows, n)
	if err := service.FanOut(n, cancel, func(i int) (err error) {
		streams[i], err = c.shards[first+i].QueryStream(ctx, req)
		return err
	}); err != nil {
		closeStreams(streams)
		cancel()
		return nil, nil, err
	}
	return streams, cancel, nil
}

// work is block and comparison counters summed over what nodes report.
type work struct{ read, written, cmp int64 }

func (w *work) add(read, written, cmp int64) {
	w.read += read
	w.written += written
	w.cmp += cmp
}

// drained is what a node stream that reached its end adds to the streams
// drained before it: the node's metrics (nil from a node that sent none).
// Only a drained stream is asked — one closed early has confirmed nothing.
func drained(nodes []*windowdb.QueryMetrics, s *windowdb.Rows) []*windowdb.QueryMetrics {
	if m := s.Metrics(); m != nil {
		nodes = append(nodes, m)
	}
	return nodes
}

// appendTuples drains a node stream into dst a batch at a time; the tuples
// are dst's own, not views of the stream's batches.
func appendTuples(ctx context.Context, dst []storage.Tuple, s *windowdb.Rows) ([]storage.Tuple, error) {
	for {
		b, ok := s.NextBatch()
		if !ok {
			return dst, s.Err()
		}
		if err := ctx.Err(); err != nil {
			return dst, err
		}
		dst = append(dst, b.Tuples()...)
	}
}

// emitStreams turns the per-node streams of a sharded statement's last
// stage into the public cursor. Statements whose finalize phase streams (no
// DISTINCT/ORDER BY) flow through with LIMIT applied by early termination;
// the rest drain into a buffer (still incremental on the wire), finalize
// at the coordinator (sql.Input.Concat) and stream the finalized table.
// base carries work done before the final streams opened (shuffle rounds).
// Until the streams are handed to a source (or drained here), they are
// closed on every exit — error or panic — so node admission slots are not
// leaked past a recovered panic.
func (c *Cluster) emitStreams(ctx context.Context, route string, prep *sql.Prepared, streams []*windowdb.Rows, streamCancel context.CancelFunc, qt *clusterTrace, base work) (*windowdb.Rows, error) {
	handoff := false
	defer func() {
		if !handoff {
			closeStreams(streams)
			streamCancel()
		}
	}()
	qt.Live().SetPhase("draining")
	if prep.ConcatStreams() {
		handoff = true
		return windowdb.NewRows(&scatterSource{
			c: c, streams: streams, streamCancel: streamCancel,
			prep: prep, route: route, qt: qt, base: base, limit: prep.Limit(),
		}), nil
	}

	// DISTINCT or ORDER BY: the concatenation must materialize before the
	// first output row is known. Drain the node streams (still incremental
	// on the wire), finalize, stream the result.
	concat := storage.NewTable(storage.NewSchema(streams[0].ColumnTypes()...))
	var nodes []*windowdb.QueryMetrics
	for _, s := range streams {
		var err error
		if concat.Rows, err = appendTuples(ctx, concat.Rows, s); err != nil {
			return nil, err
		}
		nodes = drained(nodes, s)
	}
	for _, m := range nodes {
		base.add(m.BlocksRead, m.BlocksWritten, m.Comparisons)
	}
	cur, err := prep.Open(ctx, sql.Input{Concat: concat}, false)
	if err != nil {
		return nil, err
	}
	streamCancel()
	qt.release()   // the drained streams hold no node slot any more
	handoff = true // every stream drained, and so closed itself, above
	stamps := windowdb.Stamps{Start: qt.Start, TraceID: qt.ID, CacheHit: qt.CacheHit()}
	return windowdb.CursorRows(cur, stamps, qt.Live(), func(end windowdb.Ending, meta *windowdb.QueryMetrics) {
		meta.Route, meta.ShardsUsed = route, len(streams)
		meta.BlocksRead += base.read
		meta.BlocksWritten += base.written
		meta.Comparisons += base.cmp
		c.finish(qt, meta, end, nodes, false)
	}), nil
}

// streamReplica streams the whole statement from one node, round-robin.
func (c *Cluster) streamReplica(ctx context.Context, src string, prep *sql.Prepared, qt *clusterTrace) (*windowdb.Rows, error) {
	c.replica.Add(1)
	node := int(c.rr.Add(1)-1) % len(c.shards)
	if err := c.admit(ctx, qt, node, 1); err != nil {
		return nil, err
	}
	req := service.ShardQueryRequest{Mode: string(ModeFull), Stage: service.Stage{SQL: src}}
	streams, streamCancel, err := c.openStreams(ctx, node, 1, req)
	if err != nil {
		return nil, err
	}
	qt.Live().SetPhase("draining")
	return windowdb.NewRows(&scatterSource{
		c: c, streams: streams, streamCancel: streamCancel,
		route: "replica", prep: prep, qt: qt, limit: -1,
	}), nil
}

// streamShuffle executes a statement over a sharded table segment by
// segment, cut by exec.Segments — the cut a partitioned Chain.Run makes —
// with the coordinator's plan shipped to every node, which runs its steps
// verbatim. Every segment runs scattered on all nodes, and between segments
// each node re-shuffles its output rows directly to its peers,
// hash-partitioned on the next segment's key: on ∅, every row to one node,
// for a sequential segment. The coordinator drives one barriered round per
// stage before the last — a ShuffleRun returns only when every peer
// ingested its partition — and then merge-concatenates the last stage's
// streams, so coordinator-resident rows stay bounded by the wire batch ×
// shard count while every intermediate row moves node-to-node. A chain that
// is one segment whose key covers the shard key (sql.Prepared.ShardLocal),
// or no chain, runs zero rounds and routes "scatter": its last stage is its
// only one, over each node's own partition. A failing stage cancels its
// peers (eachShard) and drops every node's buffered shuffle state before
// surfacing the error.
func (c *Cluster) streamShuffle(ctx context.Context, src string, prep *sql.Prepared, info *tableInfo, qt *clusterTrace) (*windowdb.Rows, error) {
	if err := c.admit(ctx, qt, 0, len(c.shards)); err != nil {
		return nil, err
	}
	n := len(c.shards)
	plan := prep.Plan()
	var segs []exec.Segment
	if plan != nil {
		segs = exec.Segments(plan)
	}
	// Stage list: when the shard key covers the first segment's key,
	// segment 0 reads each node's local partition directly; otherwise a raw
	// stage (WHERE only) shuffles the base rows onto that key first — and is
	// a window-less statement's only stage. Every later segment reads the
	// inbox its predecessor filled; the last stage streams instead of
	// shuffling on.
	var stages []service.Stage
	source := "local"
	if len(segs) == 0 || !info.key.SubsetOf(segs[0].Key) {
		stages = append(stages, service.Stage{Segment: -1, Source: source})
		source = "inbox"
	}
	for s := range segs {
		stages = append(stages, service.Stage{Segment: s, Source: source})
		source = "inbox"
	}
	route, id := "scatter", ""
	if len(stages) > 1 {
		route, id = "shuffle", fmt.Sprintf("%s-%d", c.shuffleNonce, c.shuffleSeq.Add(1))
		c.shuffled.Add(1)
	} else {
		c.scatter.Add(1)
	}
	for i := range stages {
		stages[i].SQL, stages[i].Plan, stages[i].ShuffleID, stages[i].Round, stages[i].Senders = src, plan, id, i, n
	}

	// cleanup drops every node's buffered rounds of this shuffle: the
	// failure path's guarantee that an aborted query leaves no state
	// behind on the node tier. Detached from ctx — the query's context is
	// typically already cancelled when cleanup runs.
	cleanup := func() {
		if id == "" {
			return
		}
		dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer dcancel()
		_ = c.eachShard(dctx, func(ctx context.Context, i int, tr Transport) error {
			_ = tr.ShuffleDrop(ctx, id)
			return nil
		})
	}

	var mu sync.Mutex
	var base work
	for si, st := range stages[:len(stages)-1] {
		qt.Live().SetPhase(fmt.Sprintf("shuffle round %d of %d", si+1, len(stages)))
		roundStart := time.Now()
		nodeSpans := make([]*trace.Span, n)
		rowsOut := make([]int64, n)
		err := c.eachShard(ctx, func(ctx context.Context, i int, tr Transport) error {
			res, err := tr.ShuffleRun(ctx, service.ShuffleRunRequest{
				Stage: st, Peers: c.peerAddrs, Self: i,
				Deliver: c.deliverShuffle,
				TraceID: qt.ID,
			})
			if err != nil {
				return err
			}
			qt.Live().AddShuffleRows(res.RowsOut)
			mu.Lock()
			base.add(res.BlocksRead, res.BlocksWritten, res.Comparisons)
			nodeSpans[i] = shuffleNodeSpan(i, st.Source, res)
			rowsOut[i] = res.RowsOut
			mu.Unlock()
			return nil
		})
		rs := trace.New(fmt.Sprintf("shuffle round %d", si), time.Since(roundStart))
		rs.SetInt("segment", int64(st.Segment)).SetAttr("source", st.Source)
		if err != nil {
			rs.SetAttr("error", err.Error())
		} else if ratio := imbalanceRatio(rowsOut); ratio > 0 {
			// Skew diagnostic: max/mean per-node output rows. 1 means the
			// round's repartition spread work evenly; N means one node did
			// everything. The last round's ratio also feeds the
			// windowdb_shuffle_round_imbalance gauge.
			rs.SetAttr("imbalance", fmt.Sprintf("%.3f", ratio))
			c.imbalance.Store(math.Float64bits(ratio))
		}
		for _, ns := range nodeSpans {
			rs.Add(ns)
		}
		qt.rounds = append(qt.rounds, rs)
		if err != nil {
			cleanup()
			return nil, err
		}
	}

	qt.Live().SetPhase(fmt.Sprintf("stage %d of %d", len(stages), len(stages)))
	freq := service.ShardQueryRequest{Mode: string(ModeSegment), Stage: stages[len(stages)-1]}
	streams, streamCancel, err := c.openStreams(ctx, 0, n, freq)
	if err != nil {
		cleanup()
		return nil, err
	}
	rows, err := c.emitStreams(ctx, route, prep, streams, streamCancel, qt, base)
	if err != nil {
		// The final streams are closed by emitStreams' handoff guard; any
		// node that never served its segment stream still holds its buffer.
		cleanup()
		return nil, err
	}
	return rows, nil
}

// shuffleNodeSpan builds one node's span of a shuffle round from the
// stage result's phase breakdown: admission wait, input acquisition
// (inbox-wait on inbox-fed stages), chain execution and peer delivery.
func shuffleNodeSpan(i int, source string, res *service.ShuffleRunResult) *trace.Span {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	sp := trace.New(fmt.Sprintf("node %d", i), ms(res.QueuedMillis+res.InputMillis+res.ExecMillis+res.DeliverMillis))
	sp.SetInt("rows_in", res.RowsIn).SetInt("rows_out", res.RowsOut).SetInt("bytes_out", res.BytesOut)
	if res.CacheHit {
		sp.SetAttr("plan_cache", "hit")
	} else {
		sp.SetAttr("plan_cache", "miss")
	}
	sp.Add(trace.New("admission.wait", ms(res.QueuedMillis)))
	in := trace.New("input", ms(res.InputMillis)).SetAttr("source", source)
	if source == "inbox" {
		in.SetAttr("inbox_wait", "true")
	}
	sp.Add(in)
	ex := trace.New("execute", ms(res.ExecMillis))
	ex.SetInt("spilled_blocks", res.BlocksWritten).SetInt("blocks_read", res.BlocksRead)
	sp.Add(ex)
	sp.Add(trace.New("deliver", ms(res.DeliverMillis)))
	return sp
}

// closeStreams closes every stream opened.
func closeStreams(streams []*windowdb.Rows) {
	for _, s := range streams {
		if s != nil {
			_ = s.Close()
		}
	}
}

// scatterSource concatenates per-node row streams in shard-index order by
// handing the draining node's batches straight through: a batch the caller
// reads is the node stream's own — a Local node's cursor batch, an HTTP
// node's decoded frame — so the coordinator holds no row of its own, and
// the streams behind the draining one at most their transport's read
// buffer. It serves the last stage's merge of a statement over a sharded
// table and (with a single stream) the replica route. LIMIT
// truncates the batch that crosses it and ends the merge early, cancelling
// the remaining node streams.
type scatterSource struct {
	c            *Cluster
	streams      []*windowdb.Rows
	streamCancel context.CancelFunc
	prep         *sql.Prepared
	route        string
	base         work  // done before the merged streams opened (the shuffle route's earlier rounds)
	limit        int64 // remaining LIMIT budget; -1 = unlimited
	qt           *clusterTrace

	idx   int
	nodes []*windowdb.QueryMetrics // of the streams drained so far
}

func (ss *scatterSource) Columns() []storage.Column { return ss.streams[0].ColumnTypes() }

// NextBatch returns the draining node's next batch; io.EOF is the merge's
// natural end: the last stream's, or the LIMIT's.
func (ss *scatterSource) NextBatch() (*stream.Batch, error) {
	for ss.idx < len(ss.streams) && ss.limit != 0 {
		s := ss.streams[ss.idx]
		b, ok := s.NextBatch()
		if !ok {
			if err := s.Err(); err != nil {
				return nil, err
			}
			ss.nodes = drained(ss.nodes, s)
			ss.idx++
			continue
		}
		if ss.limit > 0 {
			if int64(b.Len()) > ss.limit {
				b.Truncate(int(ss.limit))
			}
			ss.limit -= int64(b.Len())
		}
		ss.qt.Live().AddRowsEmitted(int64(b.Len()))
		return b, nil
	}
	return nil, io.EOF
}

func (ss *scatterSource) End(end windowdb.Ending) *windowdb.QueryMetrics {
	closeStreams(ss.streams)
	ss.streamCancel()
	meta := mergedMeta(ss.prep, ss.qt, ss.route, len(ss.streams))
	done := ss.base
	for _, m := range ss.nodes {
		done.add(m.BlocksRead, m.BlocksWritten, m.Comparisons)
	}
	meta.BlocksRead, meta.BlocksWritten, meta.Comparisons = done.read, done.written, done.cmp
	if ss.route == "replica" && len(ss.nodes) > 0 {
		meta.FinalSort = ss.nodes[0].FinalSort
	}
	ss.c.finish(ss.qt, meta, end, ss.nodes, false)
	return meta
}

// mergedMeta is the metadata, stamped as the statement ends, of a
// statement whose chain ran on the nodes, the coordinator only merging
// their streams: the plan is the coordinator's, nothing was sorted here.
func mergedMeta(prep *sql.Prepared, qt *clusterTrace, route string, streams int) *windowdb.QueryMetrics {
	meta := &windowdb.QueryMetrics{
		Meta:     sql.Meta{Plan: prep.Plan(), Chain: prep.Chain(), FinalSort: "none", Parallelism: 1},
		CacheHit: qt.CacheHit(), Route: route, ShardsUsed: streams,
		Elapsed: time.Since(qt.Start), TraceID: qt.ID,
	}
	return meta
}
