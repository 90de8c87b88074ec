package service

import (
	"context"
	"os"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cache"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/trace"
)

// FrontConfig is what a front end's statement lifecycle reads; Config and
// shard.Config embed it, so a single engine, a shard node and a cluster
// coordinator are configured alike.
type FrontConfig struct {
	// DefaultTimeout is applied to statements whose context carries no
	// deadline: a cursor's whole lifetime, a coordinator's fan-outs and a
	// node's shuffle stages alike. 0 leaves them unbounded.
	DefaultTimeout time.Duration
	// TraceRing bounds the /debug/trace ring buffer of recent statement
	// traces (default 128; negative disables retention — traces still
	// assemble and ride the trailer).
	TraceRing int
	// SlowLogThreshold enables the structured slow-query log: every
	// statement at or over the threshold writes one JSON line (kind
	// "slow_query") with its span tree to stderr. 0 disables.
	SlowLogThreshold time.Duration
	// SlowLogRate caps slow-query log emission in lines per second (the
	// storm guard; suppressed lines are counted and the count rides on the
	// next emitted line). 0 means trace.DefaultSlowLogRate; negative
	// uncaps.
	SlowLogRate int
}

// Front is the front-end half of a statement, written once for every front
// end — a single engine, a shard node (role "engine" or "shardnode") and a
// cluster coordinator ("coordinator"): plan-cache resolution through its
// engine (whose cache every front end over it shares), the in-flight
// registry behind /debug/queries, the trace ring and slow-query
// log, and the outcome counters. A statement is begun (Begin) and then
// ended exactly once — Fail before it has a cursor, End when its cursor
// ends, Leave for a node's shuffle stage that succeeded — so every front
// end counts it by the one rule, windowdb.Ending.Outcome.
type Front struct {
	eng     *windowdb.Engine
	role    string
	timeout time.Duration
	reg     *trace.Registry
	ring    *trace.Ring // nil when retention is off
	slow    *trace.SlowLogger

	// Queries, Failures and Aborted count ended statements, one counter
	// per windowdb.Outcome: served, failed, aborted.
	Queries, Failures, Aborted atomic.Uint64
}

// NewFront builds the front end half over eng, whose plan cache it
// resolves statements through; role names the process in its registry
// entries.
func NewFront(eng *windowdb.Engine, role string, cfg FrontConfig) *Front {
	f := &Front{
		eng:     eng,
		role:    role,
		timeout: cfg.DefaultTimeout,
		reg:     trace.NewRegistry(),
		slow:    trace.NewSlowLoggerRate(os.Stderr, cfg.SlowLogThreshold, cfg.SlowLogRate),
	}
	if cfg.TraceRing >= 0 {
		n := cfg.TraceRing
		if n == 0 {
			n = 128
		}
		f.ring = trace.NewRing(n)
	}
	return f
}

// Traces exposes the ring buffer of recent statement traces (nil when
// disabled); /debug/trace serves from it.
func (f *Front) Traces() *trace.Ring { return f.ring }

// Registry exposes the in-flight registry behind GET/DELETE
// /debug/queries: every begun statement — a cursor, a coordinator's
// statement, a node's shuffle stage — is listed with live counters until
// it ends, and Kill fires its stored cancel (it then counts as aborted).
func (f *Front) Registry() *trace.Registry { return f.reg }

// CacheStats snapshots the engine's plan cache.
func (f *Front) CacheStats() cache.Stats { return f.eng.PlanCacheStats() }

// Prepare validates and plans src through the plan cache, returning a
// statement that q executes by its text: a front end's PrepareContext.
func (f *Front) Prepare(ctx context.Context, q windowdb.Queryer, src string) (windowdb.Stmt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if _, _, err := f.eng.Resolve(ctx, src); err != nil {
		return nil, err
	}
	return windowdb.TextStmt(q, src), nil
}

// Insert serves an INSERT statement: parse, append through the backend's
// Append (Backend.Append) and answer with the one-row summary cursor every
// backend produces. It has no cursor to walk away from and is counted when
// its append returns: served, or failed — a cancelled context included,
// since what it cut short is a write.
func (f *Front) Insert(ctx context.Context, src string, apply func(ctx context.Context, table string, rows []storage.Tuple, atLeast uint64) (AppendResponse, error)) (*windowdb.Rows, error) {
	ins, err := sql.ParseInsert(src)
	if err == nil {
		err = ctx.Err()
	}
	var resp AppendResponse
	if err == nil {
		resp, err = apply(ctx, ins.Table, ins.Rows, 0)
	}
	if err != nil {
		f.count(windowdb.Failed)
		return nil, err
	}
	f.count(windowdb.Served)
	return windowdb.NewInsertRows(ins.Table, len(ins.Rows), resp.Watermark), nil
}

func (f *Front) count(o windowdb.Outcome) {
	switch o {
	case windowdb.Served:
		f.Queries.Add(1)
	case windowdb.Aborted:
		f.Aborted.Add(1)
	default:
		f.Failures.Add(1)
	}
}

// Statement is one statement between its Begin and its one end: its trace
// identity, its registry entry, and the cancel — kill switch and default
// timeout — that travels with it and fires when it ends.
type Statement struct {
	// ID is the trace ID, SQL the text registered and recorded, Start when
	// the statement began.
	ID    string
	SQL   string
	Start time.Time

	// planCache is Resolve's plan-cache disposition (cache.Hit, Miss or
	// Attach) and planned how long it took.
	planCache     string
	planned       time.Duration
	front         *Front
	entry         *trace.QueryEntry
	kill, timeout context.CancelFunc
}

// Begin starts a statement: the default timeout when ctx has no deadline,
// the kill cancel, the trace ID (joined from ctx, or minted), the registry
// entry under src in phase "planning", and its live counters on the
// returned context, which the statement must run under.
func (f *Front) Begin(ctx context.Context, src string) (context.Context, Statement) {
	st := Statement{SQL: src, front: f}
	if f.timeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			ctx, st.timeout = context.WithTimeout(ctx, f.timeout)
		}
	}
	ctx, st.kill = context.WithCancel(ctx)
	if st.ID = trace.FromContext(ctx); st.ID == "" {
		st.ID = trace.NewID()
		ctx = trace.NewContext(ctx, st.ID)
	}
	st.entry = f.reg.Register(st.ID, src, f.role, trace.ClientFromContext(ctx), st.kill)
	ctx = trace.WithLive(ctx, st.entry.Live())
	st.entry.Live().SetPhase("planning")
	st.Start = time.Now()
	return ctx, st
}

// Live returns the statement's live counters.
func (st *Statement) Live() *trace.Live { return st.entry.Live() }

// Resolve plans src through the engine's plan cache, noting the
// disposition and the time it took.
func (st *Statement) Resolve(ctx context.Context, src string) (*sql.Prepared, error) {
	prep, disp, err := st.front.eng.Resolve(ctx, src)
	st.planCache, st.planned = disp, time.Since(st.Start)
	return prep, err
}

// CacheHit reports that Resolve ran no prepare of its own.
func (st *Statement) CacheHit() bool { return st.planCache != cache.Miss }

// Fail ends a statement that fails before it has a cursor, by the rule a
// cursor's end counts by, recording root (nil records nothing); it returns
// err.
func (st *Statement) Fail(err error, root *trace.Span) error {
	st.End(windowdb.Ending{Err: err}, false, root)
	return err
}

// End ends the statement: it leaves the registry, is classified
// (windowdb.Ending.Outcome; closeIsServed for a stream with no last row)
// and counted, its span tree root — marked killed, aborted or with the
// error — goes to the trace ring and the slow-query log, and its cancel
// fires.
func (st *Statement) End(end windowdb.Ending, closeIsServed bool, root *trace.Span) windowdb.Outcome {
	f := st.front
	f.reg.Remove(st.entry)
	killed := st.entry.Killed()
	outcome := end.Outcome(killed, closeIsServed)
	f.count(outcome)
	if root != nil {
		if killed {
			root.SetAttr("killed", "true")
		}
		switch outcome {
		case windowdb.Aborted:
			root.SetAttr("aborted", "true")
		case windowdb.Failed:
			root.SetAttr("error", end.Err.Error())
		}
		if f.ring != nil || f.slow != nil {
			t := &trace.Trace{ID: st.ID, SQL: st.SQL, Start: st.Start, DurationMillis: root.DurationMillis, Root: root}
			if end.Err != nil {
				t.Error = end.Err.Error()
			}
			f.ring.Add(t)
			f.slow.Observe(t)
		}
	}
	st.cancel()
	return outcome
}

// Leave takes a statement out of the registry and fires its cancel without
// counting it: a node's shuffle stage that succeeded, which the node counts
// as a round (Snapshot.ShuffleRounds) — the statement is its coordinator's.
// After an end it does nothing more.
func (st *Statement) Leave() {
	st.front.reg.Remove(st.entry)
	st.cancel()
}

func (st *Statement) cancel() {
	st.kill()
	if st.timeout != nil {
		st.timeout()
	}
}

// writeMetrics renders the front's families — statement outcomes, the plan
// cache and the registry — for a single engine, a shard node and a
// coordinator alike.
func (f *Front) writeMetrics(p *PromWriter) {
	p.Counter("windowdb_queries_total", "Queries completed successfully.", float64(f.Queries.Load()))
	p.Counter("windowdb_query_failures_total", "Queries completed with an error.", float64(f.Failures.Load()))
	p.Counter("windowdb_queries_aborted_total", "Queries aborted before completion (kills, client disconnects, streams closed before their last row).", float64(f.Aborted.Load()))
	cs := f.CacheStats()
	p.Counter("windowdb_plan_cache_hits_total", "Plan cache hits.", float64(cs.Hits))
	p.Counter("windowdb_plan_cache_misses_total", "Plan cache misses.", float64(cs.Misses))
	p.Counter("windowdb_plan_cache_invalidations_total", "Plan cache entries invalidated by DDL or stats changes.", float64(cs.Invalidations))
	p.Counter("windowdb_plan_cache_evictions_total", "Plan cache LRU evictions.", float64(cs.Evictions))
	p.Gauge("windowdb_plan_cache_entries", "Plan cache resident entries.", float64(cs.Size))
	p.Gauge("windowdb_live_queries", "In-flight queries in the /debug/queries registry.", float64(f.reg.Len()))
}
