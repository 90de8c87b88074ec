package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	windowdb "repro"
	"repro/internal/attrs"
	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/trace"
)

// The node half of the cluster's distributed execution (the coordinator
// half lives in internal/shard): every statement over a sharded table runs
// segment by segment on the coordinator's planned chain (core.Plan), which
// every node binds (sql.Prepared.Bind) and cuts where exec.Segments cuts
// it. The coordinator drives one round per stage before the last: every
// node runs the stage over its current rows (RunShuffleStep) and
// re-shuffles the output directly to its peers, hash-partitioned on the
// next segment's key — on ∅, every row to one node, when that segment is
// sequential — so rows never transit the coordinator. Peers ingest into a
// per-service shuffle inbox keyed by (shuffle id, round); the next round's
// stage consumes its inbox buffer whole (the coordinator barriers rounds,
// so a consumed buffer is always complete). The last stage streams its
// projected output back as a "segment" node stream (ShardStream), which the
// coordinator merge-concatenates. A chain that is one segment whose key
// covers the shard key runs zero rounds: its last stage is its only one,
// over the node's own partition.
//
// Memory discipline: a node's resident shuffle state is its own partition
// of the intermediate rows — the same order of magnitude as its registered
// table partition — and the coordinator holds only the final merge's
// in-flight rows. Slot discipline: each RunShuffleStep holds the node's
// admission slot for the stage's chain execution; the segment stream holds
// it for the cursor lifetime, exactly like every other streamed query.

// ShuffleBatch is one sender's contribution to one inbox buffer: the frame
// body (framebody.go) of the rows of the receiver's hash partition, whose
// header names the shuffle, round and sender the envelope repeats.
type ShuffleBatch struct {
	ID     string
	Round  int
	Sender int
	Body   []byte
}

// ShuffleRunRequest asks a node to execute one stage before the last.
type ShuffleRunRequest struct {
	Stage
	// Peers are the nodes' base URLs for the HTTP data plane; Peers[Self]
	// is this node. Unused when Deliver is set.
	Peers []string `json:"peers,omitempty"`
	// Self is this node's shard index.
	Self int `json:"self"`
	// TraceID joins the stage to the coordinator's distributed trace; ""
	// leaves the stage untraced.
	TraceID string `json:"trace_id,omitempty"`
	// Deliver ships one body to peer (a shard index), whose ShuffleIngest
	// reads it. Never serialized: an in-process cluster sets it, a remote
	// node's handler builds it from Peers.
	Deliver func(ctx context.Context, peer int, b *ShuffleBatch) error `json:"-"`
}

// ShuffleRunResult reports one executed stage: row flow plus the execution
// observations the coordinator aggregates.
type ShuffleRunResult struct {
	RowsIn        int64 `json:"rows_in"`
	RowsOut       int64 `json:"rows_out"`
	CacheHit      bool  `json:"cache_hit"`
	BlocksRead    int64 `json:"blocks_read"`
	BlocksWritten int64 `json:"blocks_written"`
	Comparisons   int64 `json:"comparisons"`
	// BytesOut is the size of the frame bodies the stage shipped, its own
	// partition's included.
	BytesOut int64 `json:"bytes_out"`

	// Per-phase wall-clock breakdown of the stage, for the coordinator's
	// shuffle-round trace spans: admission wait, input acquisition (local
	// base filter, or the wait-free inbox take whose cost is the rows a
	// slow peer has not yet delivered — by the round barrier it is the
	// take itself), segment chain execution, and partitioning, encoding
	// and peer delivery.
	QueuedMillis  float64 `json:"queued_ms"`
	InputMillis   float64 `json:"input_ms"`
	ExecMillis    float64 `json:"exec_ms"`
	DeliverMillis float64 `json:"deliver_ms"`
}

// shuffleInbox is a service's buffered shuffle state: one buffer per
// (shuffle id, round), each accumulating rows from every peer until the
// consuming stage takes it. Dropped shuffle ids leave a bounded tombstone
// trail so a straggler delivery racing the coordinator's cleanup — a peer
// still streaming when the drop lands — cannot silently re-create a
// deleted buffer that nothing would ever consume.
type shuffleInbox struct {
	mu      sync.Mutex
	bufs    map[string]*shuffleBuf
	dropped map[string]bool // recently dropped shuffle ids (tombstones)
	dropLog []string        // FIFO bounding dropped to shuffleTombstones
}

// shuffleTombstones bounds the remembered dropped ids: stragglers arrive
// within the failing round's cancellation window, so a short memory is
// enough, and the bound keeps a long-lived node from accumulating one
// entry per failed query forever.
const shuffleTombstones = 256

// tombstone records id as dropped. Caller holds in.mu.
func (in *shuffleInbox) tombstone(id string) {
	if in.dropped == nil {
		in.dropped = make(map[string]bool)
	}
	if in.dropped[id] {
		return
	}
	in.dropped[id] = true
	in.dropLog = append(in.dropLog, id)
	if len(in.dropLog) > shuffleTombstones {
		delete(in.dropped, in.dropLog[0])
		in.dropLog = in.dropLog[1:]
	}
}

type shuffleBuf struct {
	arity   int
	senders map[int][]storage.Tuple // each committed sender's rows
	touched time.Time               // last commit; drives the TTL sweep
}

func shuffleKey(id string, round int) string { return fmt.Sprintf("%s/%d", id, round) }

// sweep drops buffers untouched for ttl: the node-side backstop for a
// coordinator that died (or whose cleanup drop never arrived) between
// delivering a round and consuming it — the only other way a buffer is
// freed is its take or an explicit drop. Caller holds in.mu; ttl 0
// disables.
func (in *shuffleInbox) sweep(ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	cutoff := time.Now().Add(-ttl)
	for key, b := range in.bufs {
		if b.touched.Before(cutoff) {
			delete(in.bufs, key)
		}
	}
}

// sweepShuffle expires idle inbox buffers; called lazily from shuffle
// operations and Stats.
func (s *Service) sweepShuffle() {
	s.inbox.mu.Lock()
	s.inbox.sweep(s.cfg.ShuffleTTL)
	s.inbox.mu.Unlock()
}

// ShuffleIngest reads one peer's frame body (framebody.go) whole, then
// commits its rows and its sender's completion to the buffer its header
// names under one lock, so a body that does not decode (cut anywhere, a
// trailer miscounting) or that the inbox refuses (a dropped shuffle, a
// duplicate sender, a wrong arity) leaves the inbox as it was: ErrRefused.
// In-process deliveries and the /shard/shuffle route both end here.
func (s *Service) ShuffleIngest(ctx context.Context, body io.Reader) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var hdr shuffleHeader
	var rows []storage.Tuple
	if _, err := readFrameBody(body, &hdr, func(batch []storage.Tuple) error {
		rows = append(rows, batch...)
		return nil
	}); err != nil {
		return fmt.Errorf("%w: %w", ErrRefused, err)
	}
	id, round, arity := hdr.ShuffleID, hdr.Round, hdr.arity()
	s.inbox.mu.Lock()
	defer s.inbox.mu.Unlock()
	s.inbox.sweep(s.cfg.ShuffleTTL)
	if s.inbox.dropped[id] {
		return fmt.Errorf("%w: shuffle %s was dropped", ErrRefused, id)
	}
	key := shuffleKey(id, round)
	b := s.inbox.bufs[key]
	if b == nil {
		b = &shuffleBuf{arity: arity, senders: make(map[int][]storage.Tuple)}
		s.inbox.bufs[key] = b
	} else if _, dup := b.senders[hdr.Sender]; dup {
		return fmt.Errorf("%w: shuffle %s round %d: sender %d delivered twice", ErrRefused, id, round, hdr.Sender)
	} else if b.arity != arity {
		return fmt.Errorf("%w: shuffle %s round %d: row arity %d != %d", ErrRefused, id, round, arity, b.arity)
	}
	b.senders[hdr.Sender] = rows
	b.touched = time.Now()
	return nil
}

// takeShuffle removes and returns the buffer for (id, round) as a table
// with the given schema, its senders' rows in sender order whatever order
// they arrived in, so a stage's input and counts are the same every run.
// The coordinator barriers rounds, so an incomplete buffer — missing
// senders, wrong arity — is a coordination fault.
func (s *Service) takeShuffle(id string, round, senders int, schema *storage.Schema) (*storage.Table, error) {
	s.inbox.mu.Lock()
	defer s.inbox.mu.Unlock()
	key := shuffleKey(id, round)
	b := s.inbox.bufs[key]
	if b == nil {
		return nil, fmt.Errorf("%w: shuffle %s round %d: no buffered input", ErrRefused, id, round)
	}
	delete(s.inbox.bufs, key)
	if len(b.senders) != senders {
		return nil, fmt.Errorf("%w: shuffle %s round %d: %d of %d senders delivered", ErrRefused, id, round, len(b.senders), senders)
	}
	if b.arity != schema.Len() {
		return nil, fmt.Errorf("%w: shuffle %s round %d: row arity %d != schema arity %d", ErrRefused, id, round, b.arity, schema.Len())
	}
	t := storage.NewTable(schema)
	for sender := range senders {
		rows, ok := b.senders[sender]
		if !ok {
			return nil, fmt.Errorf("%w: shuffle %s round %d: no body from sender %d", ErrRefused, id, round, sender)
		}
		t.Rows = append(t.Rows, rows...)
	}
	return t, nil
}

// ShuffleDrop discards every buffered round of shuffle id — the
// coordinator's cleanup path when a stage fails or a query is abandoned
// mid-shuffle — and tombstones the id so a peer delivery still in flight
// when the drop lands is rejected instead of re-creating a buffer nothing
// will ever consume.
func (s *Service) ShuffleDrop(id string) {
	s.inbox.mu.Lock()
	defer s.inbox.mu.Unlock()
	s.inbox.tombstone(id)
	prefix := id + "/"
	for key := range s.inbox.bufs {
		if len(key) > len(prefix) && key[:len(prefix)] == prefix {
			delete(s.inbox.bufs, key)
		}
	}
}

// shuffleBuffered returns the number of buffered shuffle rounds
// (Snapshot.ShuffleBuffered).
func (s *Service) shuffleBuffered() int {
	s.inbox.mu.Lock()
	defer s.inbox.mu.Unlock()
	return len(s.inbox.bufs)
}

// RunShuffleStep executes one stage before the last: resolve the statement
// (plan cache) and bind the shipped plan, take the stage's input (local
// partition or inbox buffer), run the segment's chain steps under an
// admission slot, encode the output into one frame body per peer,
// hash-partitioned on the next segment's key (encodeShuffle), release the
// chain, and deliver every body through req.Deliver. It returns when every
// peer has ingested its body, which is what lets the coordinator barrier
// rounds. A failed delivery cancels the remaining sends. The stage is a
// statement of the node's Front under the coordinator's trace ID — listed
// in /debug/queries, where the coordinator's merge finds it and a fanned-
// out kill fires its cancel — that a failure ends and a success leaves
// uncounted (it is a round, Snapshot.ShuffleRounds).
func (s *Service) RunShuffleStep(ctx context.Context, req ShuffleRunRequest) (*ShuffleRunResult, error) {
	if req.Deliver == nil {
		return nil, errors.New("service: shuffle stage without a delivery path")
	}
	if req.Senders < 1 {
		return nil, errors.New("service: malformed shuffle stage request")
	}
	ctx, st := s.Begin(trace.NewContext(ctx, req.TraceID), req.SQL)
	// Deferred so that a panicking stage leaves no entry behind either.
	defer st.Leave()
	res, err := s.runShuffleStep(ctx, &st, req)
	if err != nil {
		return nil, st.Fail(err, nil)
	}
	return res, nil
}

func (s *Service) runShuffleStep(ctx context.Context, st *Statement, req ShuffleRunRequest) (*ShuffleRunResult, error) {
	prep, err := st.Resolve(ctx, req.SQL)
	if err != nil {
		return nil, err
	}
	bound, err := bindStage(prep, req.Stage)
	if err != nil {
		return nil, err
	}
	runner := bound.Segments()
	live := st.Live()
	phase := fmt.Sprintf("shuffle raw round %d", req.Round)
	if req.Segment >= 0 {
		phase = fmt.Sprintf("segment %d of %d", req.Segment+1, runner.Segments())
	}
	live.SetPhase("queued")

	// The stage's chain execution is a full chain-memory consumer; it takes
	// an admission slot like any other execution, released synchronously
	// when the stage (sends included) finishes.
	phaseStart := time.Now()
	if _, err := s.gov.acquire(ctx); err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.metrics.rejected.Add(1)
		}
		return nil, err
	}
	s.metrics.beginExec()
	defer func() {
		s.gov.release()
		s.metrics.endExec()
	}()
	s.metrics.shuffleRounds.Add(1)
	live.RaiseMemPeak(1)
	live.SetPhase(phase)
	queuedMillis := phaseMillis(&phaseStart)

	in, err := s.stageInput(ctx, runner, req.Stage, false)
	if err != nil {
		return nil, err
	}

	res := &ShuffleRunResult{
		RowsIn: int64(in.Rows.Len()), CacheHit: st.CacheHit(),
		QueuedMillis: queuedMillis, InputMillis: phaseMillis(&phaseStart),
	}
	out, m, err := runner.Run(ctx, req.Segment, in.Rows)
	if err != nil {
		return nil, err
	}
	res.BlocksRead, res.BlocksWritten, res.Comparisons = m.BlocksRead, m.BlocksWritten, m.Comparisons
	res.RowsOut = int64(out.Len())
	res.ExecMillis = phaseMillis(&phaseStart)

	hdr := shuffleHeader{
		ShuffleID: req.ShuffleID, Round: req.Round + 1, Sender: req.Self,
		streamHeader: streamHeader{Columns: WireColumns(out.Schema.Columns)},
	}
	bodies, err := encodeShuffle(out, runner.Key(req.Segment+1).IDs(), req.Senders, hdr)
	out.Release()
	if err != nil {
		return nil, err
	}
	for _, body := range bodies {
		res.BytesOut += int64(len(body))
	}

	// Deliver every body concurrently; the first failure cancels the other
	// sends so a doomed round does not keep shipping rows.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, req.Senders)
	var wg sync.WaitGroup
	for peer := 0; peer < req.Senders; peer++ {
		wg.Add(1)
		go func(peer int) {
			defer wg.Done()
			b := &ShuffleBatch{ID: hdr.ShuffleID, Round: hdr.Round, Sender: hdr.Sender, Body: bodies[peer]}
			if err := req.Deliver(sctx, peer, b); err != nil {
				errs[peer] = err
				cancel()
			}
		}(peer)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return nil, err
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	res.DeliverMillis = phaseMillis(&phaseStart)
	live.AddShuffleRows(res.RowsOut)
	return res, nil
}

// encodeShuffle encodes a stage's output into one frame body per peer: the
// rows exec.PartitionPositions hashes to the peer on key, every column
// gathered straight out of the chain — a row's slots, a tail vector — as
// Cursor.NextBatch gathers it. The bodies copy every value and string, so
// the chain may be released as soon as they are made.
func encodeShuffle(out *exec.Chain, key []attrs.ID, peers int, hdr shuffleHeader) ([][]byte, error) {
	var b stream.Batch
	bodies := make([][]byte, peers)
	for peer, pos := range exec.PartitionPositions(out.Rows, key, peers) {
		var err error
		bodies[peer], err = encodeFrameBody(&hdr, len(pos), &b, func(b *stream.Batch, off, k int) error {
			b.Reset(out.Schema.Len(), k)
			for c := 0; c < out.Schema.Len(); c++ {
				if c < out.Width {
					b.GatherTuples(c, out.Rows, c, pos[off:])
				} else {
					b.GatherValues(c, out.Tail[c-out.Width], pos[off:])
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

// phaseMillis reports the milliseconds since *start and advances it: the
// phase clock RunShuffleStep reads between its stages.
func phaseMillis(start *time.Time) float64 {
	now := time.Now()
	d := now.Sub(*start)
	*start = now
	return float64(d) / float64(time.Millisecond)
}

// bindStage binds the stage's shipped plan onto the node's statement; a
// plan that does not bind is a refused stage.
func bindStage(prep *sql.Prepared, st Stage) (*sql.Prepared, error) {
	bound, err := prep.Bind(st.Plan)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrRefused, err)
	}
	return bound, nil
}

// stageInput is a stage's input, checked against the bound statement's cut:
// the one switch over where a stage's rows come from. The last stage runs
// the last segment (-1 for a window-less statement), a stage before it an
// earlier segment or the raw stage. Source "local" is the node's own
// partition, which only the first stage reads: through the statement's
// WHERE for a stage before the last, and as the zero sql.Input for the last
// — the whole statement, which reads its table itself and may share its
// scan. Source "inbox" is the buffer the previous round delivered.
func (s *Service) stageInput(ctx context.Context, runner *sql.SegmentRunner, st Stage, last bool) (sql.Input, error) {
	final := runner.Segments() - 1
	if last && st.Segment != final || !last && (st.Segment < -1 || st.Segment >= final) {
		return sql.Input{}, fmt.Errorf("%w: stage for segment %d of %d", ErrRefused, st.Segment, runner.Segments())
	}
	switch st.Source {
	case "local":
		if st.Segment > 0 {
			return sql.Input{}, fmt.Errorf("%w: segment %d cannot read the local partition", ErrRefused, st.Segment)
		}
		if last {
			return sql.Input{}, nil
		}
		t, err := runner.FilterBase(ctx)
		return sql.Input{Rows: t}, err
	case "inbox":
		if st.Segment < 0 {
			return sql.Input{}, fmt.Errorf("%w: the raw stage cannot read the inbox", ErrRefused)
		}
		t, err := s.takeShuffle(st.ShuffleID, st.Round, st.Senders, runner.InputSchema(st.Segment))
		return sql.Input{Rows: t}, err
	}
	return sql.Input{}, fmt.Errorf("%w: unknown stage source %q", ErrRefused, st.Source)
}

// streamSegment serves the last stage of a statement over a sharded table
// as a streaming cursor, with the node's admission slot held for the cursor
// lifetime: the shipped plan's last segment over the stage's input.
// DISTINCT, ORDER BY and LIMIT stay with the coordinator's finalize over
// the concatenation of every node's stream.
func (s *Service) streamSegment(ctx context.Context, st Stage) (*windowdb.Rows, error) {
	return s.streamCursor(ctx, st.SQL, st.SQL, "draining", func(ctx context.Context, prep *sql.Prepared) (execCursor, error) {
		bound, err := bindStage(prep, st)
		if err != nil {
			return nil, err
		}
		in, err := s.stageInput(ctx, bound.Segments(), st, true)
		if err != nil {
			return nil, err
		}
		return s.openStream(ctx, bound, in, true)
	})
}
