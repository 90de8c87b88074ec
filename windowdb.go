// Package windowdb is the public face of this repository: a window-function
// query engine reproducing "Optimization of Analytic Window Functions"
// (Cao, Chan, Li, Tan; PVLDB 5(11), 2012).
//
// The engine evaluates SQL:2003 analytic window functions over in-memory
// tables with a simulated block-I/O substrate, and plans multi-function
// queries with the paper's cover-set based optimizer (CSO) or with the
// baselines it is evaluated against (BFO, ORCL, PSQL). The three tuple
// reordering operators — Full Sort, Hashed Sort and Segmented Sort — are
// faithful streaming implementations with exact block-I/O accounting.
//
// The package also defines the repository-wide result surface: the
// Queryer interface (QueryContext returning an incremental Rows cursor,
// plus PrepareContext) that Engine, service.Service, service.Client and
// shard.Cluster all implement, and the sqldriver package adapts to
// database/sql.
//
// Quick start:
//
//	eng := windowdb.New(windowdb.Config{})
//	eng.Register("emptab", table)
//	rows, err := eng.QueryContext(ctx, `SELECT empnum, rank() OVER (ORDER BY salary DESC) AS r FROM emptab`)
//	defer rows.Close()
//	for rows.Next() {
//		var emp, r int64
//		_ = rows.Scan(&emp, &r)
//	}
//
// Collect answers a statement whole over any Queryer: the cursor drained
// into a *Result, the table beside the same QueryMetrics the cursor
// reports. See the examples directory for complete programs and DESIGN.md
// for the system inventory.
package windowdb

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/delta"
	"repro/internal/exec"
	"repro/internal/pagestore"
	"repro/internal/recycle"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Re-exported scheme names.
const (
	SchemeCSO  = sql.SchemeCSO
	SchemeBFO  = sql.SchemeBFO
	SchemeORCL = sql.SchemeORCL
	SchemePSQL = sql.SchemePSQL
)

// Config parameterizes an Engine. The zero value is usable: CSO planning,
// 64 MB unit reorder memory, 8 KiB blocks, memory-backed spill store, and
// GOMAXPROCS-degree parallel chain execution.
type Config struct {
	// Scheme selects the plan generator for multi-window queries.
	Scheme sql.Scheme
	// SortMemBytes is the unit reorder memory M: the budget given to every
	// tuple reordering operation in a chain (Section 6.1 of the paper).
	SortMemBytes int
	// BlockSize is the simulated page size.
	BlockSize int
	// FileBackedSpill spills sort runs and hash buckets to temp files in
	// TempDir instead of accounting-only memory buffers.
	FileBackedSpill bool
	TempDir         string
	// DisableHS / DisableSS restrict the optimizer to the paper's CSO(v1) /
	// CSO(v2) ablation variants.
	DisableHS bool
	DisableSS bool
	// Parallelism is the worker degree of exec.Chain.Run, which runs every
	// statement's chain: above 1 it hash-partitions the chain's segments
	// across that many workers. 0 is
	// the GOMAXPROCS sequential-compatible default (identical derived
	// values and row multiset; row order follows partition index, so ORDER
	// BY queries are sorted explicitly); 1 or a negative value runs the
	// sequential pipeline.
	Parallelism int
	// PlanCacheEntries bounds the engine's plan cache: the prepared
	// statements QueryContext and PrepareContext reuse, keyed on their
	// canonical text (default 256).
	PlanCacheEntries int
}

func (c Config) withDefaults() Config {
	if c.SortMemBytes <= 0 {
		c.SortMemBytes = 64 << 20
	}
	if c.BlockSize <= 0 {
		c.BlockSize = pagestore.DefaultBlockSize
	}
	if c.Scheme == "" {
		c.Scheme = sql.SchemeCSO
	}
	if c.PlanCacheEntries <= 0 {
		c.PlanCacheEntries = 256
	}
	// Resolve the parallel degree once, with exec.Config.Degree's mapping
	// (0 = GOMAXPROCS, negative = sequential), so every consumer — the
	// executor routing and the serving layer's per-chain memory accounting
	// — sees the same concrete value.
	c.Parallelism = exec.Config{Parallelism: c.Parallelism}.Degree()
	return c
}

// Engine owns a catalog of tables and executes window queries against it.
//
// Concurrency contract: an Engine is safe for unrestricted concurrent use.
// Query/QueryContext, Prepare and the catalog accessors may run from any
// number of goroutines, concurrently with Register. Registered tables are
// treated as immutable — callers must not mutate a *storage.Table after
// handing it to Register; replacing a table re-registers under the same
// name and advances the catalog generation (Generation), invalidating
// prepared statements built on the old entry.
// Queries that already hold the old entry finish against the old (still
// immutable) table — the snapshot-at-lookup semantics of the catalog.
// Lazily computed statistics (distinct counts) are mutex-guarded
// inside each catalog entry and computed at most once per key.
//
// An engine plans a repeated statement once: QueryContext and
// PrepareContext resolve statement text through its plan cache (Resolve),
// which every front end over the engine — a service, a shard node, a
// cluster coordinator — shares.
type Engine struct {
	cfg Config
	cat *catalog.Catalog
	hub *delta.Hub
	// plans is the plan cache: prepared statements keyed on their
	// canonical text, kept while the catalog entry they were planned on is
	// current.
	plans *cache.LRU[*sql.Prepared]
	// appendMu serializes Append's catalog-swap + hub-publish pair, and
	// SubscribeStatement's register + snapshot pair, so subscriptions see
	// every batch exactly once (either in the snapshot or on the channel).
	appendMu sync.Mutex
}

// Engine implements Queryer; the service, client and cluster backends
// assert the same in their packages.
var _ Queryer = (*Engine)(nil)

// New creates an engine.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		cfg:   cfg,
		cat:   catalog.New(),
		hub:   delta.NewHub(),
		plans: cache.New(cfg.PlanCacheEntries, (*sql.Prepared).Current),
	}
}

// Register adds (or replaces) a table under name. Statistics (distinct
// counts) are computed lazily on first use.
func (e *Engine) Register(name string, t *storage.Table) {
	e.cat.Register(name, t)
}

// RegisterStub adds (or replaces) a schema-only catalog entry backed by
// externally supplied statistics: the coordinator side of sharded
// registration. Planning sees the schema, B(R), |R| and D(·) of a table
// whose rows live on shard nodes; executing a statement prepared on a stub
// directly reads zero rows — a cluster's shard nodes execute, its
// coordinator only finalizes their streams (sql.Input.Concat).
func (e *Engine) RegisterStub(name string, schema *storage.Schema, stats catalog.TableStats) {
	e.cat.RegisterStub(name, schema, stats)
}

// Tables lists registered table names.
func (e *Engine) Tables() []string { return e.cat.Names() }

// Table returns a registered table.
func (e *Engine) Table(name string) (*storage.Table, error) {
	entry, err := e.cat.Lookup(name)
	if err != nil {
		return nil, err
	}
	return entry.Table(), nil
}

// Result is a statement answered whole: its output table and the metadata
// its cursor reported.
type Result struct {
	Table *storage.Table
	QueryMetrics
}

// Collect runs src on q and drains the cursor into a Result: the rows in
// the cursor's order, and its metadata. It is the one way to answer a
// statement whole, over any backend. A SUBSCRIBE never ends, so Collect
// refuses it (sql.ErrBind) instead of draining it forever.
func Collect(ctx context.Context, q Queryer, src string) (*Result, error) {
	if _, ok := StripSubscribe(src); ok {
		return nil, fmt.Errorf("%w: SUBSCRIBE never ends; read it through a QueryContext cursor", sql.ErrBind)
	}
	rows, err := q.QueryContext(ctx, src)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	res := &Result{Table: storage.NewTable(storage.NewSchema(rows.ColumnTypes()...))}
	for rows.Next() {
		res.Table.Rows = append(res.Table.Rows, rows.Row())
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	if m := rows.Metrics(); m != nil {
		res.QueryMetrics = *m
	}
	return res, nil
}

// Query answers one statement whole on this engine: Collect under a
// background context.
func (e *Engine) Query(src string) (*Result, error) {
	return Collect(context.Background(), e, src)
}

// QueryContext executes one query and returns an incremental Rows cursor
// over its output — the Queryer surface shared with service.Service,
// service.Client and shard.Cluster. ctx is threaded down through the
// executor and checked at chain-step boundaries (in a partitioned chain,
// inside every worker's sub-chain) while the chain runs, and
// at a fixed row stride while the cursor streams, so a runaway query stops
// shortly after ctx is done. A `SUBSCRIBE <stmt>` answers with the inner
// statement's Subscription as the cursor.
func (e *Engine) QueryContext(ctx context.Context, src string) (*Rows, error) {
	if inner, ok := StripExplainAnalyze(src); ok {
		return ExplainAnalyzeRows(ctx, e, inner)
	}
	if sql.IsInsert(src) {
		return e.insertRows(ctx, src)
	}
	start := time.Now()
	inner, subscribe := StripSubscribe(src)
	if subscribe {
		src = inner
	}
	p, disp, err := e.Resolve(ctx, src)
	if err != nil {
		return nil, err
	}
	var cur Cursor
	if subscribe {
		cur, err = e.SubscribeStatement(ctx, p)
	} else {
		cur, err = p.Open(ctx, sql.Input{}, false)
	}
	if err != nil {
		return nil, err
	}
	return CursorRows(cur, Stamps{Start: start, TraceID: trace.FromContext(ctx), CacheHit: disp != cache.Miss}, nil, nil), nil
}

// PrepareContext validates, binds and plans a statement through the plan
// cache, returning a statement that executes by its text: the Queryer
// counterpart of Prepare.
func (e *Engine) PrepareContext(ctx context.Context, src string) (Stmt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if _, _, err := e.Resolve(ctx, src); err != nil {
		return nil, err
	}
	return TextStmt(e, src), nil
}

// Prepare parses, binds and plans a query without executing it, past the
// plan cache. The returned statement executes with this engine's scheme
// and resources, any number of times and concurrently; it is valid while
// its table's catalog entry is current (sql.Prepared.Current:
// re-registering the table invalidates it — execution then reads the
// superseded entry).
func (e *Engine) Prepare(src string) (*sql.Prepared, error) {
	r := e.runner()
	return r.Prepare(src)
}

// Resolve returns src's prepared statement through the engine's plan cache
// and how the lookup was served: cache.Hit, cache.Miss (this call
// prepared it) or cache.Attach (it waited on a concurrent miss). The key
// is src's canonical text (sql.Canonical), rendered into a reused buffer,
// so a hit lexes src once and allocates no key. A cached statement stays
// while the catalog entry it was planned on is current; a failed prepare
// is never cached. Text the lexer rejects skips the cache and fails in
// Prepare, so whether a statement fails never depends on its spacing.
func (e *Engine) Resolve(ctx context.Context, src string) (*sql.Prepared, string, error) {
	buf := recycle.Keys.Get()
	defer recycle.Keys.Put(buf)
	key, err := sql.AppendCanonical((*buf)[:0], src)
	*buf = key
	if err != nil {
		p, err := e.Prepare(src)
		return p, cache.Miss, err
	}
	return e.plans.Get(ctx, cache.Lookup{Key: key}, e.cat.Generation(), func() (*sql.Prepared, error) {
		return e.Prepare(src)
	})
}

// PlanCacheStats snapshots the plan cache's counters.
func (e *Engine) PlanCacheStats() cache.Stats { return e.plans.Stats(e.cat.Generation()) }

// Generation returns the engine's catalog generation: the count of Register
// calls. Prepared statements record the generation they were built under.
func (e *Engine) Generation() uint64 { return e.cat.Generation() }

// ResolvedConfig returns the engine's configuration with defaults applied —
// the actual unit reorder memory, block size and parallel degree queries
// run with. Serving layers size admission-control slots from it.
func (e *Engine) ResolvedConfig() Config { return e.cfg }

func (e *Engine) runner() sql.Runner {
	return sql.Runner{
		Catalog:   e.cat,
		Scheme:    e.cfg.Scheme,
		Exec:      e.execConfig(),
		DisableHS: e.cfg.DisableHS,
		DisableSS: e.cfg.DisableSS,
	}
}

// execConfig assembles the executor configuration (Parallelism is resolved
// already, by withDefaults).
func (e *Engine) execConfig() exec.Config {
	return exec.Config{
		MemoryBytes: e.cfg.SortMemBytes,
		BlockSize:   e.cfg.BlockSize,
		FileBacked:  e.cfg.FileBackedSpill,
		TempDir:     e.cfg.TempDir,
		Parallelism: e.cfg.Parallelism,
	}
}

// Stats exposes a table's catalog statistics for cost-model inspection.
func (e *Engine) Stats(table string) (*catalog.Entry, error) {
	return e.cat.Lookup(table)
}
