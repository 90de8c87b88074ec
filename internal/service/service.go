// Package service is the concurrent query-serving layer over
// windowdb.Engine: the subsystem that turns the single-query reproduction
// into a system that plans once and executes many.
//
// Three mechanisms compose:
//
//   - the statement lifecycle every front end shares (Front, front.go; a
//     cluster coordinator holds one too): statements resolve through the
//     engine's plan cache (windowdb.Engine.Resolve), so parse, bind and CSO
//     planning are paid once per engine whichever front end serves them;
//     the in-flight registry, the trace ring, the slow-query log and the
//     outcome counters.
//
//   - admission control (governor): a global reorder-memory budget is
//     divided into unit-memory execution slots; at most Slots chains run
//     concurrently, each entitled to the full unit reorder memory M of
//     Section 6.1, in the spirit of the spill-budget discipline of Shi &
//     Wang's aggregate-window spilling work. Excess queries wait in a
//     bounded queue honoring context cancellation and deadlines (threaded
//     down to chain-step boundaries in the executor); past the bound they
//     fail fast with the typed ErrOverloaded.
//
//   - metrics: QPS, in-flight gauge with high-water mark, an exponential
//     latency histogram read at p50/p95/p99, and aggregated exec.Metrics.
//
// The HTTP front end over this layer lives in http.go: the one route table
// every front end serves (NewHandler), which Service.Handler mounts over
// the service as its Backend;
// cmd/windserve wires it to a socket, and benchmark/'s serve_http workload
// drives it through Client over loopback.
package service

import (
	"context"
	"errors"
	"net/http"
	"time"

	"repro"
	"repro/internal/cache"
	"repro/internal/sql"
	"repro/internal/trace"
)

// Config parameterizes a Service. The zero value serves: 4 chain-memory
// slots, a 64-entry admission queue, no implicit deadline. The plan cache
// is the engine's (windowdb.Config.PlanCacheEntries).
type Config struct {
	// FrontConfig is the statement lifecycle's half: default timeout,
	// trace ring and slow-query log.
	FrontConfig
	// MemoryBudgetBytes is the global reorder-memory budget shared by all
	// concurrent queries. It is divided by the per-chain memory cost —
	// the engine's unit reorder memory M times its resolved parallel
	// degree, since every worker of a parallel chain is entitled to the
	// full M — into execution slots (minimum 1): with the default 0 the
	// budget is 4 chains' worth. Ignored when Slots is set.
	MemoryBudgetBytes int
	// Slots overrides the derived slot count when > 0.
	Slots int
	// MaxQueue bounds the queries waiting for a slot; the MaxQueue+1-th
	// waiter is rejected with ErrOverloaded. Default 64; negative means no
	// queue (immediate rejection when all slots are busy).
	MaxQueue int
	// SubplanEntries bounds the shared-subplan cache — materialized
	// scan+reorder segments shared across concurrent queries (subplan.go).
	// Default 32; each entry pins a filtered, reordered copy of its table,
	// so the bound is deliberately much smaller than the plan cache's.
	SubplanEntries int
	// DisableSharing turns the shared-subplan cache off: every query runs
	// its own scan. Tests use the unshared service as their reference, and
	// it is a bail-out if sharing ever misbehaves in production.
	DisableSharing bool
	// ShardRoutes mounts the /shard/* node surface (query, register,
	// table, distinct, shuffle) on Handler. Off by default: those routes
	// let a cluster coordinator install tables and dump raw rows, so only
	// processes meant to serve as shard nodes — deployed behind the
	// cluster boundary, not on the public edge — should enable them.
	ShardRoutes bool
	// PeerClient is the HTTP client shuffle stages use to deliver
	// re-shuffled rows to peer nodes (their /shard/shuffle routes); nil
	// uses http.DefaultClient. Configure it when the node-to-node data
	// plane needs TLS, a custom CA or dial timeouts — the coordinator's
	// own transport client never carries this traffic.
	PeerClient *http.Client
	// ShuffleTTL expires idle shuffle-inbox buffers: a coordinator that
	// dies between delivering a round and consuming it can never send its
	// cleanup drop, so nodes sweep buffers untouched for this long
	// (lazily, on shuffle activity and Stats). 0 means the 5-minute
	// default — generously past any round barrier a live coordinator
	// would tolerate — and negative disables expiry.
	ShuffleTTL time.Duration
}

func (c Config) withDefaults(chainMem int) Config {
	if c.Slots <= 0 {
		budget := c.MemoryBudgetBytes
		if budget <= 0 {
			budget = 4 * chainMem
		}
		c.Slots = budget / chainMem
		if c.Slots < 1 {
			c.Slots = 1
		}
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = 64
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	if c.SubplanEntries <= 0 {
		c.SubplanEntries = 32
	}
	switch {
	case c.ShuffleTTL == 0:
		c.ShuffleTTL = 5 * time.Minute
	case c.ShuffleTTL < 0:
		c.ShuffleTTL = 0 // disabled
	}
	return c
}

// Service is a thread-safe query service over a windowdb.Engine. All
// methods may be called concurrently. Its Front is the statement
// lifecycle a cluster coordinator shares.
type Service struct {
	*Front
	cfg      Config
	gov      *governor
	subplans *cache.LRU[*sql.SharedSegment] // nil when Config.DisableSharing
	metrics  *Metrics
	inbox    shuffleInbox
	release  func() // gives back what admit took; built once, so admitting allocates nothing
}

// New builds a service over eng. The engine must not be shared with
// another admission-controlled service (slots would not compose).
func New(eng *windowdb.Engine, cfg Config) *Service {
	// Per-chain memory cost: M per worker of a partitioned chain
	// (ResolvedConfig returns the concrete degree, ≥ 1).
	rc := eng.ResolvedConfig()
	cfg = cfg.withDefaults(rc.SortMemBytes * rc.Parallelism)
	role := "engine"
	if cfg.ShardRoutes {
		role = "shardnode"
	}
	s := &Service{
		Front:   NewFront(eng, role, cfg.FrontConfig),
		cfg:     cfg,
		gov:     newGovernor(cfg.Slots, cfg.MaxQueue),
		metrics: newMetrics(),
		inbox:   shuffleInbox{bufs: make(map[string]*shuffleBuf)},
	}
	s.release = func() {
		s.gov.release()
		s.metrics.endExec()
	}
	if !cfg.DisableSharing {
		s.subplans = cache.New(cfg.SubplanEntries, (*sql.SharedSegment).Current)
	}
	return s
}

// Engine returns the wrapped engine (for registration; Register invalidates
// the cached plans of the table it replaces).
func (s *Service) Engine() *windowdb.Engine { return s.eng }

// Slots returns the concurrent-execution bound the governor enforces.
func (s *Service) Slots() int { return s.gov.Slots() }

// queryTrace assembles a served query's span tree: the plan-cache lookup
// (a prepare on a miss), the admission wait, the shared-subplan lookup
// (an attacher's wait, a leader's scan short of its reorder), the chain
// execution subtree meta carries as its Trace (per-step reorder choice,
// cardinality and spill), and the residual drain/render time.
func queryTrace(planned, queued time.Duration, planCache string, rows int64, meta *windowdb.QueryMetrics) *trace.Span {
	root := trace.New("query", meta.Elapsed)
	root.Children = make([]*trace.Span, 0, 5)
	root.SetInt("rows", rows)
	root.Add(trace.New("plan", planned).SetAttr("plan_cache", planCache))
	root.Add(trace.New("admission.wait", queued))
	rest := meta.Elapsed - planned - queued
	if meta.SharedScan != "" {
		root.Add(trace.New("subplan", meta.SharedWait).SetAttr("shared_scan", meta.SharedScan))
		rest -= meta.SharedWait
	}
	if meta.Trace != nil {
		root.Add(meta.Trace)
		rest -= meta.ExecElapsed()
	}
	if rest > 0 {
		root.Add(trace.New("drain", rest))
	}
	return root
}

// Service implements windowdb.Queryer: QueryContext serves a statement as
// an incremental Rows cursor whose admission slot is held for the cursor's
// whole lifetime — acquired before execution, released when the cursor is
// drained or closed. A client that stops consuming must Close (the HTTP
// layer does so on disconnect), or its slot stays occupied; a cancelled
// context unblocks a half-drained cursor at the next row stride and
// releases the slot the same way.
var _ windowdb.Queryer = (*Service)(nil)

// QueryContext serves one query as a streaming cursor. Error classes:
// parse and bind errors (sql.ErrParse/ErrBind), unknown tables
// (catalog.ErrUnknownTable), admission rejection (ErrOverloaded), and
// ctx.Err() for queries cancelled or timed out while queued, between chain
// steps or mid-drain; anything else is an engine fault. An `EXPLAIN ANALYZE <stmt>` prefix executes the inner
// statement through the same path and returns the annotated trace
// rendering as a one-column text cursor; an `INSERT INTO ...` statement
// appends through Service.Append and returns the one-row summary cursor;
// a `SUBSCRIBE <stmt>` prefix serves the long-lived maintained cursor —
// the subscription holds its admission slot for its whole lifetime, shows
// in /debug/queries with phase "waiting for data", and is killable there.
func (s *Service) QueryContext(ctx context.Context, src string) (*windowdb.Rows, error) {
	if inner, ok := windowdb.StripExplainAnalyze(src); ok {
		return windowdb.ExplainAnalyzeRows(ctx, s, inner)
	}
	if windowdb.IsInsert(src) {
		return s.Insert(ctx, src, s.Append)
	}
	if inner, ok := windowdb.StripSubscribe(src); ok {
		return s.subscribeStream(ctx, src, inner)
	}
	return s.streamCursor(ctx, src, src, "draining", func(ctx context.Context, prep *sql.Prepared) (windowdb.Cursor, error) {
		return s.openStream(ctx, prep, sql.Input{}, false)
	})
}

// subscribeStream serves a SUBSCRIBE through the shared streaming body:
// the inner statement resolves through the plan cache, the subscription is
// admitted like any chain (it holds the slot while live) and registered
// under the full SUBSCRIBE text.
func (s *Service) subscribeStream(ctx context.Context, full, inner string) (*windowdb.Rows, error) {
	return s.streamCursor(ctx, full, inner, "waiting for data", func(ctx context.Context, prep *sql.Prepared) (windowdb.Cursor, error) {
		return s.eng.SubscribeStatement(ctx, prep)
	})
}

// PrepareContext validates and plans src through the engine's plan cache,
// returning a statement that executes via the streaming path.
func (s *Service) PrepareContext(ctx context.Context, src string) (windowdb.Stmt, error) {
	return s.Prepare(ctx, s, src)
}

// streamCursor is the shared streaming-serve body: plan-cache resolution,
// admission, and the handoff-guarded slot-to-cursor transfer, with the
// execution cursor opened by open (the full statement, a sharded
// statement's last stage, or a subscription). display is the statement
// text registered in /debug/queries (the full SUBSCRIBE spelling for
// subscriptions); src is what resolves through the plan cache; phase is
// the registry phase the cursor shows while it streams.
//
// The slot and the in-flight gauge are held until the cursor's one end —
// drained, failed or closed early — which gives them back and ends the
// statement (Statement.End): a full drain is a query, an execution error a
// failure, and an early Close, a kill or a caller that left an abort, with
// no latency sample, so partial deliveries don't masquerade as fast
// successes in the histogram.
func (s *Service) streamCursor(ctx context.Context, display, src, phase string, open func(context.Context, *sql.Prepared) (windowdb.Cursor, error)) (*windowdb.Rows, error) {
	ctx, st := s.Begin(ctx, display)
	prep, err := st.Resolve(ctx, src)
	if err != nil {
		return nil, st.Fail(err, nil)
	}

	live := st.Live()
	queued, release, err := s.admit(ctx, live)
	if err != nil {
		return nil, st.Fail(err, nil)
	}
	live.SetPhase("executing")
	// Until the slot is handed to the cursor, release it on every exit —
	// error or panic (recovered per-request by net/http): a panicking
	// chain must not wedge the governor shut while /healthz still answers
	// ok.
	handoff := false
	defer func() {
		if !handoff {
			release()
		}
	}()

	cur, err := open(ctx, prep)
	if err != nil {
		return nil, st.Fail(err, nil)
	}
	live.SetPhase(phase)
	handoff = true
	stamps := windowdb.Stamps{Start: st.Start, TraceID: st.ID, CacheHit: st.CacheHit()}
	return windowdb.CursorRows(cur, stamps, live, func(end windowdb.Ending, meta *windowdb.QueryMetrics) {
		release()
		meta.Queued = queued
		meta.Trace = queryTrace(st.planned, queued, st.planCache, end.Rows, meta)
		if st.End(end, false, meta.Trace) == windowdb.Served {
			s.metrics.observe(meta.Exec, end.Rows, meta.Elapsed)
		}
	}), nil
}

// admit takes an admission slot for a statement — phase "queued" while it
// waits, an ErrOverloaded rejection counted — and enters it in the
// in-flight gauge and in its live memory peak. It returns how long the
// statement queued and the release that gives both back, which the caller
// calls once.
func (s *Service) admit(ctx context.Context, live *trace.Live) (time.Duration, func(), error) {
	live.SetPhase("queued")
	start := time.Now()
	if _, err := s.gov.acquire(ctx); err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.metrics.rejected.Add(1)
		}
		return 0, nil, err
	}
	queued := time.Since(start)
	s.metrics.beginExec()
	live.RaiseMemPeak(1)
	return queued, s.release, nil
}

// ResetMaxInFlight re-arms the in-flight high-water mark to the current
// gauge value, so load harnesses can read a per-window maximum instead of
// the lifetime one.
func (s *Service) ResetMaxInFlight() {
	s.metrics.maxInFlight.Store(s.metrics.inFlight.Load())
}

// Stats snapshots the service counters, including admission and cache
// state. It doubles as the shuffle inbox's periodic sweep trigger: /stats
// polling is the one call path a node sees regularly even when no new
// shuffles arrive, so orphaned buffers expire without a background
// goroutine.
func (s *Service) Stats() Snapshot {
	s.sweepShuffle()
	snap := s.metrics.snapshot(s.Front)
	snap.Slots = s.gov.Slots()
	snap.QueueDepth = s.gov.queueDepth()
	snap.LiveQueries = s.reg.Len()
	snap.Subscriptions = s.eng.Subscriptions()
	snap.ShuffleBuffered = s.shuffleBuffered()
	snap.Cache = s.CacheStats()
	if s.subplans != nil {
		snap.Subplans = s.subplans.Stats(s.eng.Generation())
	}
	return snap
}

// StatsBody implements Backend: /stats serves Stats.
func (s *Service) StatsBody(context.Context) (any, error) { return s.Stats(), nil }

// Health implements Backend: a service serves while its caller waits.
func (s *Service) Health(ctx context.Context) error { return ctx.Err() }

// LiveQueries implements Backend: the in-flight registry, newest first.
func (s *Service) LiveQueries(ctx context.Context) ([]trace.QueryInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.reg.Snapshot(), nil
}

// KillQuery implements Backend: fires the registry entry's cancel.
func (s *Service) KillQuery(ctx context.Context, id string) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return s.reg.Kill(id), nil
}
