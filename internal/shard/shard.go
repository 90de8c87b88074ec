// Package shard is the distributed execution subsystem: a Cluster
// coordinator scattering window-function chains across N shard nodes, each
// a full windowdb.Engine (private catalog, spill store, unit reorder
// memory M) behind a Transport.
//
// The routing rule lifts Section 3.5 of the paper from threads of one
// process to nodes of a cluster. RegisterSharded hash-partitions a table's
// rows on a declared shard key with the executors' tuple-encoding hash
// (exec.PartitionRows); small dimension tables replicate instead. A query
// prepares once at the coordinator — against a schema-only catalog stub
// whose statistics are aggregated from the shards — and then runs on the
// one cut of its plan, exec.Segments (the cut a partitioned exec.Chain.Run
// makes across worker threads):
//
//   - a statement over a sharded table ships the coordinator's plan to the
//     nodes, which run its steps verbatim segment by segment, scattered one
//     round at a time, each node re-shuffling its output rows directly to
//     the peer nodes hash-partitioned on the next segment's key (the
//     service's /shard/shuffle data plane). A sequential segment — one with
//     a PARTITION-BY-less function, or whose keys diverge to nothing — is
//     keyed on ∅: every row hashes to the same node, which runs it while
//     its peers hold no rows. The last segment streams back, and the
//     coordinator concatenates the streams in shard-index order —
//     deterministic and value-identical to single-engine execution — then
//     finalizes (DISTINCT, ORDER BY as a full sort, LIMIT) over the
//     concatenation, exactly as post-barrier segments restart in a
//     partitioned exec.Chain.Run; its resident rows stay bounded by the
//     wire batch × shard count while the re-shuffled rows never leave the
//     node tier. When the chain is one segment whose key covers the shard
//     key (sql.Prepared.ShardLocal), no window partition spans shards and
//     the statement runs zero rounds: each node streams the whole chain
//     over its own rows. It reports route "scatter", any other "shuffle";
//   - replica: queries over replicated tables go, whole, to one node
//     round-robin.
//
// Transports come in two forms: Local (in-process service.Service — tests,
// benches, single-binary scale-up) and HTTP (the /shard/* routes of a
// remote windserve, so windserve -shards host1,host2 forms a real
// cluster). Cluster.Handler serves the route table every front end serves
// (service.NewHandler), each route answering the methods it declares:
//
//	GET, POST   /query               scatter, shuffle or replica route
//	POST        /append              routed to the owning nodes
//	GET         /stats               ClusterStats: per-shard snapshots and routing counters
//	GET         /healthz             fans out to every shard
//	GET         /metrics             routing counters and per-shard families
//	GET         /debug/trace/[{id}]  the coordinator's recent traces
//	GET         /debug/queries       in-flight statements, node entries merged under each
//	GET, DELETE /debug/queries/{id}  one of them; DELETE kills it on every node
//
// GET routes answer HEAD too; any other method is a 405.
package shard

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/attrs"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Config parameterizes a Cluster.
type Config struct {
	// FrontConfig is the coordinator's statement lifecycle: the default
	// timeout covering shard fan-outs and coordinator-side execution alike,
	// the trace ring and the slow-query log.
	service.FrontConfig
	// Engine configures the coordinator's engine, which plans every
	// statement (scheme, unit reorder memory and block size feed the cost
	// model; its plan cache — shard nodes keep their own — saves the
	// coordinator's parse/bind/plan work) and finalizes DISTINCT/ORDER BY
	// over node streams; it never runs a chain.
	Engine windowdb.Config
}

// statsTimeout bounds each statistics fan-out behind the coordinator's
// catalog stubs. The D(·) estimator runs during planning, detached from any
// single query's context — one wedged shard must not hang every statement
// that needs a fresh distinct count.
const statsTimeout = 15 * time.Second

// Cluster coordinates query execution over shard nodes. All methods are
// safe for concurrent use once the cluster's tables are registered;
// registration itself may run concurrently with queries (a registration
// invalidates the cached plans of the table it replaces, as on a single
// engine).
type Cluster struct {
	shards []Transport
	coord  *windowdb.Engine
	// front is the coordinator's statement lifecycle over coord: its plan
	// cache keeps a plan while the stub or replica it was planned on is the
	// coordinator catalog's entry, so a registration drops only its own
	// table's plans. queries, failures and aborted are its outcome counters.
	front                      *service.Front
	queries, failures, aborted *atomic.Uint64

	mu     sync.RWMutex
	tables map[string]*tableInfo // keyed by folded name

	rr atomic.Uint64 // replica round-robin cursor

	// Shuffle identity: every per-segment distributed query names its
	// buffered state on the nodes with nonce-seq, so concurrent queries —
	// and queries from other coordinators sharing the nodes — never
	// collide.
	shuffleNonce string
	shuffleSeq   atomic.Uint64
	// peerAddrs[i] is shard i's base URL when its transport exposes one
	// (HTTP); remote nodes address each other with these on the shuffle
	// data plane. In-process transports deliver through deliverShuffle
	// instead. All are set or none is (New).
	peerAddrs []string

	scatter, shuffled, replica atomic.Uint64
	appends, rowsAppended      atomic.Uint64

	// imbalance is the last shuffle round's max/mean row imbalance ratio
	// (math.Float64bits-packed), feeding the windowdb_shuffle_round_imbalance
	// gauge.
	imbalance atomic.Uint64
}

// tableInfo records how a table is distributed.
type tableInfo struct {
	name    string // as-registered spelling
	sharded bool
	keyCols []string
	key     attrs.Set
	rows    int64
}

// New builds a cluster over the given shard transports. At least one shard
// is required; one shard is a degenerate but valid cluster (every scatter
// has a single partition). Every node must reach every peer on the shuffle
// data plane, so the transports are all addressable (remote nodes send to
// each other's URLs) or all in-process (delivery through the coordinator's
// transports): a mix would strand a remote node without an address for an
// in-process peer.
func New(cfg Config, shards []Transport) (*Cluster, error) {
	if len(shards) == 0 {
		return nil, errors.New("shard: a cluster needs at least one shard")
	}
	addrs := make([]string, len(shards))
	addressable := 0
	for i, tr := range shards {
		if a, ok := tr.(interface{ Addr() string }); ok {
			addrs[i] = a.Addr()
			addressable++
		}
	}
	if addressable != 0 && addressable != len(shards) {
		return nil, fmt.Errorf("shard: %d of %d shard transports are addressable: the shuffle data plane needs all of them remote or all in-process", addressable, len(shards))
	}
	c := &Cluster{
		shards:       shards,
		coord:        windowdb.New(cfg.Engine),
		tables:       make(map[string]*tableInfo),
		shuffleNonce: shuffleNonce(),
		peerAddrs:    addrs,
	}
	c.front = service.NewFront(c.coord, "coordinator", cfg.FrontConfig)
	c.queries, c.failures, c.aborted = &c.front.Queries, &c.front.Failures, &c.front.Aborted
	return c, nil
}

// Traces returns the coordinator's ring of recent query traces (nil when
// disabled); /debug/trace serves from it.
func (c *Cluster) Traces() *trace.Ring { return c.front.Traces() }

// Registry returns the coordinator's in-flight query registry: every
// statement inside QueryContext is listed with live phase and counters,
// and Kill fires its stored cancel (the query classifies as aborted).
// GET/DELETE /debug/queries serve from it, with the shard nodes' matching
// entries merged under each owning query.
func (c *Cluster) Registry() *trace.Registry { return c.front.Registry() }

// ShuffleImbalance reports the most recent shuffle round's max/mean
// per-node output-row ratio (1 = perfectly balanced, 0 = no shuffle round
// observed yet) — the feed for skew-aware repartitioning.
func (c *Cluster) ShuffleImbalance() float64 {
	return math.Float64frombits(c.imbalance.Load())
}

// imbalanceRatio computes max/mean over per-node output-row counts; 0 when
// the round moved no rows at all (no meaningful skew to report).
func imbalanceRatio(rowsOut []int64) float64 {
	var max, sum int64
	for _, r := range rowsOut {
		sum += r
		if r > max {
			max = r
		}
	}
	if sum == 0 || len(rowsOut) == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(rowsOut))
	return float64(max) / mean
}

// shuffleNonce generates the coordinator's shuffle-id prefix. Random, not
// clock-derived: two coordinators sharing the same shard nodes must never
// produce colliding ids (their batches would intermix in one inbox
// buffer), and same-tick construction with identical sequence counters is
// exactly the collision a wall clock permits.
func shuffleNonce() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; degrade to
		// the clock rather than refusing to build a cluster.
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// deliverShuffle routes one re-shuffled batch to the peer's transport: the
// in-process data plane (a Local node reads the body into its inbox, an
// HTTP node gets it POSTed). Remote nodes executing a stage use
// the request's peer addresses instead and never call back here.
func (c *Cluster) deliverShuffle(ctx context.Context, peer int, b *service.ShuffleBatch) error {
	if peer < 0 || peer >= len(c.shards) {
		return fmt.Errorf("shard: shuffle delivery to unknown peer %d", peer)
	}
	return c.shards[peer].AcceptShuffle(ctx, b)
}

// Shards returns the number of shard nodes.
func (c *Cluster) Shards() int { return len(c.shards) }

// Coordinator returns the coordinator engine (stub catalog; it plans and
// finalizes, the nodes execute). Tests inspect it.
func (c *Cluster) Coordinator() *windowdb.Engine { return c.coord }

// RegisterSharded hash-partitions t's rows on the named key columns and
// installs one partition per shard, all under name. The coordinator keeps
// only a schema stub with aggregated statistics: |R| and B(R) exactly,
// D(·) as the capped sum of shard-local counts — exact whenever the set
// contains the shard key (groups are then disjoint across shards), an
// upper bound otherwise. Chains whose common partition key covers the
// shard key will execute shard-locally (scatter); others shuffle.
func (c *Cluster) RegisterSharded(ctx context.Context, name string, t *storage.Table, keyCols ...string) error {
	if len(keyCols) == 0 {
		return fmt.Errorf("shard: sharded registration of %q needs a shard key", name)
	}
	var key attrs.Set
	for _, col := range keyCols {
		i := t.Schema.ColIndex(col)
		if i < 0 {
			return fmt.Errorf("shard: table %q has no column %q", name, col)
		}
		key = key.Add(attrs.ID(i))
	}
	parts := exec.PartitionRows(t.Rows, key.IDs(), len(c.shards))
	if err := c.eachShard(ctx, func(ctx context.Context, i int, tr Transport) error {
		pt := storage.NewTable(t.Schema)
		pt.Rows = parts[i]
		return tr.Register(ctx, name, pt)
	}); err != nil {
		return fmt.Errorf("shard: registering %q: %w", name, err)
	}
	rows := int64(t.Len())
	c.coord.RegisterStub(name, t.Schema, catalog.TableStats{
		Rows:     rows,
		Bytes:    int64(t.ByteSize()),
		Distinct: c.distinctFn(name, rows),
	})
	c.mu.Lock()
	c.tables[strings.ToLower(name)] = &tableInfo{
		name: name, sharded: true, keyCols: keyCols, key: key, rows: rows,
	}
	c.mu.Unlock()
	return nil
}

// RegisterReplicated installs the full table on every shard — the small
// dimension-table path. Queries over it go, whole, to one node
// round-robin; the coordinator keeps the table too, for exact statistics.
func (c *Cluster) RegisterReplicated(ctx context.Context, name string, t *storage.Table) error {
	if err := c.eachShard(ctx, func(ctx context.Context, i int, tr Transport) error {
		return tr.Register(ctx, name, t)
	}); err != nil {
		return fmt.Errorf("shard: replicating %q: %w", name, err)
	}
	c.coord.Register(name, t)
	c.mu.Lock()
	c.tables[strings.ToLower(name)] = &tableInfo{name: name, rows: int64(t.Len())}
	c.mu.Unlock()
	return nil
}

// distinctFn builds the stub's D(·) estimator: the capped sum of
// shard-local distinct counts, resolved lazily per set (the catalog entry
// caches each set's answer). A shard error degrades to the row count —
// the most pessimistic well-defined estimate — rather than failing the
// plan.
func (c *Cluster) distinctFn(name string, rows int64) func(attrs.Set) int64 {
	return func(set attrs.Set) int64 {
		// The estimator runs during planning, outside any one query's
		// context; bound it so a wedged shard cannot hang every statement
		// that needs this set's count.
		ctx, cancel := context.WithTimeout(context.Background(), statsTimeout)
		defer cancel()
		counts := make([]int64, len(c.shards))
		err := c.eachShard(ctx, func(ctx context.Context, i int, tr Transport) error {
			d, err := tr.Distinct(ctx, name, set)
			if err != nil {
				return err
			}
			counts[i] = d
			return nil
		})
		if err != nil {
			return rows
		}
		var sum int64
		for _, d := range counts {
			sum += d
		}
		if sum > rows {
			sum = rows
		}
		return sum
	}
}

// eachShard runs fn for every shard concurrently (service.FanOut). The
// first failure cancels the peers — a query doomed by one shard must not
// keep burning the others' execution slots for the slowest shard's full
// chain time — and the error is the first by shard index that is not just
// that cancellation's fallout.
func (c *Cluster) eachShard(ctx context.Context, fn func(ctx context.Context, i int, tr Transport) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	return service.FanOut(len(c.shards), cancel, func(i int) error { return fn(ctx, i, c.shards[i]) })
}

// Cluster implements windowdb.Queryer.
var _ windowdb.Queryer = (*Cluster)(nil)

// QueryContext serves one statement as an incremental Rows cursor. A
// statement over a sharded table merge-concatenates the per-node row
// streams of its last stage in shard-index order — the coordinator holds
// in-flight rows, not node responses, so its memory is bounded by the wire
// batch size × shard count instead of |R| — except when DISTINCT or ORDER
// BY force the finalize pass to materialize the concatenation first. Every route holds
// its shard streams until the cursor is drained or closed. Error classes
// match the single-engine service: sql.ErrParse/ErrBind,
// catalog.ErrUnknownTable, service.ErrOverloaded (from a shard's admission
// control), ctx errors, and engine faults — remote errors unwrap to the
// same sentinels (service.RemoteError).
func (c *Cluster) QueryContext(ctx context.Context, src string) (*windowdb.Rows, error) {
	if inner, ok := windowdb.StripExplainAnalyze(src); ok {
		return windowdb.ExplainAnalyzeRows(ctx, c, inner)
	}
	if windowdb.IsInsert(src) {
		return c.front.Insert(ctx, src, c.Append)
	}
	// Every fan-out this statement makes — scatter streams, shuffle control
	// rounds — carries its trace ID to the nodes, and its kill switch
	// (DELETE /debug/queries/{id}) and timeout cancel every one.
	ctx, st := c.front.Begin(ctx, src)
	qt := &clusterTrace{Statement: st}
	rows, err := c.streamQuery(ctx, qt)
	if err != nil {
		var root *trace.Span
		if len(qt.rounds) > 0 {
			// Even a failed shuffle leaves its trace: what the statement
			// looked like up to the failure.
			root = c.traceRoot(qt, &windowdb.QueryMetrics{
				Route: "shuffle", ShardsUsed: len(c.shards), CacheHit: qt.CacheHit(),
				Elapsed: time.Since(qt.Start),
			}, 0, nil)
		}
		return nil, qt.Fail(err, root)
	}
	return rows, nil
}

// PrepareContext validates and plans src at the coordinator (through the
// plan cache), returning a statement that executes via the streaming
// path.
func (c *Cluster) PrepareContext(ctx context.Context, src string) (windowdb.Stmt, error) {
	return c.front.Prepare(ctx, c, src)
}

// clusterTrace is a statement of the coordinator's Front plus the spans
// collected before its final streams open (the shuffle route's rounds).
type clusterTrace struct {
	service.Statement
	rounds []*trace.Span
}

// finish ends a statement served as a cursor, whichever source streamed
// it, with the coordinator's span tree. meta comes stamped and carries, as
// its Trace, the coordinator's own execution subtree (nil when it ran
// none), which that tree takes in and replaces. nodes are the drained node
// streams' metrics in shard-index order.
func (c *Cluster) finish(qt *clusterTrace, meta *windowdb.QueryMetrics, end windowdb.Ending, nodes []*windowdb.QueryMetrics, closeIsServed bool) {
	meta.Trace = c.traceRoot(qt, meta, end.Rows, nodes)
	qt.End(end, closeIsServed, meta.Trace)
}

// traceRoot assembles the coordinator's span tree for a statement: its
// route, the shuffle rounds, its own finalize, and the nodes' Trace
// subtrees grafted under per-node spans.
func (c *Cluster) traceRoot(qt *clusterTrace, meta *windowdb.QueryMetrics, rows int64, nodes []*windowdb.QueryMetrics) *trace.Span {
	root := trace.New("query", meta.Elapsed)
	root.SetAttr("route", meta.Route)
	root.SetInt("shards", int64(meta.ShardsUsed))
	if meta.CacheHit {
		root.SetAttr("plan_cache", "hit")
	} else {
		root.SetAttr("plan_cache", "miss")
	}
	root.SetInt("rows", rows)
	for _, rs := range qt.rounds {
		root.Add(rs)
	}
	// The coordinator's own execution — the finalize over a drained
	// concatenation — slots in like a node's would.
	root.Add(meta.Trace)
	for i, out := range nodes {
		if out.Trace == nil {
			continue
		}
		// Re-label the node's root ("query") as its shard position without
		// mutating the node-owned span (in-process transports share the
		// pointer with the node's own trace ring).
		root.Add(&trace.Span{
			Name:           fmt.Sprintf("node %d", i),
			DurationMillis: out.Trace.DurationMillis,
			Attrs:          out.Trace.Attrs,
			Children:       out.Trace.Children,
		})
	}
	return root
}

// Handler returns the coordinator's HTTP/JSON front end: the route table
// every front end serves (service.NewHandler) over the coordinator's Front
// and the cluster, so clients don't care which one they talk to. /query
// responses carry "route" (scatter|shuffle|replica) and "shards_used"; a
// streamed one on the scatter route forwards the per-node streams in
// shard-index order without materializing the result. /stats is
// ClusterStats, /healthz fans out to every shard (503 names the first down
// node), and /debug/queries merges the nodes' entries under each query.
// Shard-node errors unwrap through service.RemoteError to the service sentinels, so
// an overloaded shard is a 429 here too.
func (c *Cluster) Handler() http.Handler { return service.NewHandler(c.front, c) }

// Health implements service.Backend: it fans out to every shard and returns
// the first failure.
func (c *Cluster) Health(ctx context.Context) error {
	return c.eachShard(ctx, func(ctx context.Context, i int, tr Transport) error {
		if err := tr.Health(ctx); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		return nil
	})
}
