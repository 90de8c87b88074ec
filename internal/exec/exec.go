// Package exec runs window-function chains (core.Plan) over materialized
// tables: it applies each step's reordering operator, invokes the window
// function, and collects per-step metrics — block I/O, key comparisons and
// wall time — the measurements behind every figure in the paper's Section 6.
package exec

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/attrs"
	"repro/internal/core"
	"repro/internal/pagestore"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/window"
)

// Config carries execution resources.
type Config struct {
	// MemoryBytes is the unit reorder memory M: every reordering operation
	// in the chain gets this budget (Section 6.1).
	MemoryBytes int
	// BlockSize is the page size (default pagestore.DefaultBlockSize).
	BlockSize int
	// FileBacked spills to real temp files in TempDir instead of memory.
	FileBacked bool
	TempDir    string
	// HSBuckets overrides the Hashed Sort bucket-count policy when > 0.
	HSBuckets int
	// Distinct estimates D(set) from catalog statistics; used for HS bucket
	// sizing. nil falls back to policy defaults.
	Distinct func(set attrs.Set) int64
	// Parallelism is the worker degree of Chain.Run (Section 3.5
	// generalized to whole chains): a value > 1 hash-partitions the input
	// of every segment Segments finds into that many data partitions,
	// and any other runs the sequential pipeline (Degree resolves 0 to
	// runtime.GOMAXPROCS(0) for facades that want that default). The
	// partitioned path is sequential-compatible — it computes exactly the
	// sequential derived values over exactly the sequential row multiset —
	// but emits rows in partition-index order rather than the sequential
	// pipeline's final order.
	Parallelism int
}

// Degree resolves Parallelism to a concrete worker count (≥ 1).
func (c Config) Degree() int {
	switch {
	case c.Parallelism > 0:
		return c.Parallelism
	case c.Parallelism == 0:
		return runtime.GOMAXPROCS(0)
	default:
		return 1
	}
}

func (c Config) blockSize() int {
	if c.BlockSize > 0 {
		return c.BlockSize
	}
	return pagestore.DefaultBlockSize
}

// StepMetrics measures one chain step.
type StepMetrics struct {
	WFID          int
	Reorder       core.ReorderKind
	BlocksRead    int64
	BlocksWritten int64
	Comparisons   int64
	// Rows is the step's output cardinality (window evaluation is 1:1, so
	// this is also the input cardinality — the "actual rows" side of
	// EXPLAIN ANALYZE).
	Rows int64
	// Duration is the step's wall time; the first step's includes the
	// chain's set-up, so the steps add up to Metrics.Elapsed.
	Duration time.Duration
	// Detail carries operator-specific statistics (runs, buckets, units,
	// and the rows its sorts placed by grouping).
	Detail string
	// EstComparisons is the cost model's comparison term for the step
	// (core.CostParams.StepCmps), set by the layer that holds the
	// planner's statistics; 0 when none did.
	EstComparisons int64
}

// Metrics aggregates a chain execution.
type Metrics struct {
	Steps         []StepMetrics
	BlocksRead    int64
	BlocksWritten int64
	Comparisons   int64
	Elapsed       time.Duration
	// Concatenated reports that the output rows are a partition-index
	// concatenation produced by the partitioned path rather than the
	// sequential pipeline's output order: orderings implied by the plan's
	// final stream property then hold only within each partition. False
	// whenever the chain's final segment ran sequentially (a sequential
	// segment after a parallel one always begins with an order-rebuilding
	// reorder, which restores the plan's tracked property).
	Concatenated bool
	// PartitionedSteps counts the chain steps that executed hash-
	// partitioned across workers; 0 means the whole chain ran on the
	// sequential pipeline.
	PartitionedSteps int
}

// TotalBlocks returns read+written blocks, the paper's I/O cost unit.
func (m *Metrics) TotalBlocks() int64 { return m.BlocksRead + m.BlocksWritten }

// Chain is a chain execution's result in the shape the executor produced
// it, split at the chain's last reordering step L (lastReorder). Derived
// columns of steps before L had to ride through a later reorder and sit in
// the tuples; after L no row changes position again, so step L and every
// later step evaluate into position-indexed vectors instead of widening
// the rows. Column c of row i is Rows[i][c] for c < Width and
// Tail[c-Width][i] otherwise. A chain that ran partitioned
// (Config.Parallelism) holds whole tuples instead: Width is the schema's
// and there is no Tail.
//
// Rows and the tuples in it may be the input table's own (a chain with one
// leading reorder, or none, copies nothing): a Chain is read-only.
type Chain struct {
	// Schema is the input schema extended with one derived column per step,
	// in plan evaluation order.
	Schema *storage.Schema
	Rows   []storage.Tuple
	// Width is the column count of every row: the input arity plus L, or
	// the schema's after a partitioned run.
	Width int
	Tail  [][]storage.Value

	plan  *core.Plan          // what Run executes
	arena *storage.TupleArena // where the rows, the tails and the row arrays were carved
}

// NewChain returns the chain a statement runs plan in over rows of schema,
// before anything has run: no rows yet, and an arena from the process-wide
// pool (storage.NewPooledTupleArena) that nothing has carved. A caller that
// builds the chain's input — a WHERE's survivors — carves its row array
// there (Headers), so the array goes back to the pool with the chain's own
// on Release. Run executes the plan; a nil plan is a window-less
// statement's, whose chain is its input.
func NewChain(schema *storage.Schema, plan *core.Plan) *Chain {
	width := schema.Len() + lastReorder(plan)
	return &Chain{Schema: schema, Width: width, plan: plan, arena: storage.NewPooledTupleArena(width)}
}

// Headers carves an array of n row headers — length 0, capacity n — out of
// the chain's arena: it lives until Release.
func (c *Chain) Headers(n int) []storage.Tuple { return c.arena.Headers(n) }

// Len returns the row count.
func (c *Chain) Len() int { return len(c.Rows) }

// Release ends the chain: the value, byte and header slabs its rows, the
// strings a spill read back into them, its tail vectors and its row arrays
// were carved from go back to the process-wide pool, for the next
// statement's chain to carve. No row of the chain, no value in one, no tail
// value and — when ArenaStrings reports so — no string read out of one may
// be read afterwards. Idempotent. A chain that is never released is
// garbage-collected like any other, its strings with it.
func (c *Chain) Release() {
	if c.arena != nil {
		c.arena.Recycle()
	}
	c.arena, c.Rows, c.Tail = nil, nil, nil
}

// ArenaStrings reports whether a string read out of the chain may lie in
// its arena — one a spill read back — and so dies with Release: whoever
// keeps a string past Release copies it first when this says so. A chain
// that never spilled a string holds only its input's.
func (c *Chain) ArenaStrings() bool { return c.arena != nil && c.arena.CarvedStrings() }

// At returns column col of row i.
func (c *Chain) At(i, col int) storage.Value {
	if col < c.Width {
		return c.Rows[i][col]
	}
	return c.Tail[col-c.Width][i]
}

// Compare orders rows a and b on key, whose elements name chain columns.
func (c *Chain) Compare(a, b int, key attrs.Seq) int {
	for _, e := range key {
		if d := storage.CompareUnder(c.At(a, int(e.Attr)), c.At(b, int(e.Attr)), e); d != 0 {
			return d
		}
	}
	return 0
}

// appendRows appends the chain's rows to dst as whole tuples — each row's
// values followed by its tail values — carved one after another out of
// vals, each sliced to exactly its own region.
func (c *Chain) appendRows(dst []storage.Tuple, vals []storage.Value) []storage.Tuple {
	stride := c.Width + len(c.Tail)
	for i, r := range c.Rows {
		row := storage.Tuple(vals[i*stride : (i+1)*stride : (i+1)*stride])
		copy(row, r)
		for k, col := range c.Tail {
			row[c.Width+k] = col[i]
		}
		dst = append(dst, row)
	}
	return dst
}

// RunContext is RunChain under the name its one caller, benchmark/ladder.go,
// uses.
var RunContext = RunChain

// lastReorder returns L, the index of the chain's last reordering step (0
// for a chain without one, or without a plan): the step after which row
// positions are final.
func lastReorder(plan *core.Plan) int {
	if plan == nil {
		return 0
	}
	last := 0
	for i, step := range plan.Steps {
		if step.Reorder != core.ReorderNone {
			last = i
		}
	}
	return last
}

// RunChain executes plan over table — specs[i] is the window function with
// ID i in the plan — and returns the result unmaterialized: Run on a chain
// from NewChain, which the caller releases.
func RunChain(ctx context.Context, table *storage.Table, specs []window.Spec, plan *core.Plan, cfg Config) (*Chain, *Metrics, error) {
	chain := NewChain(table.Schema, plan)
	metrics, err := chain.Run(ctx, table, specs, cfg)
	if err != nil {
		return nil, nil, err
	}
	return chain, metrics, nil
}

// Run executes the chain's plan over table, once: the one executor. ctx is
// checked at every step boundary (a chain step — reorder plus window
// evaluation — is the unit of preemption), and ctx.Err() is returned when
// it is done. With cfg.Parallelism > 1 a chain that Segments finds a
// partition key for runs partitioned (runSegments); any other runs the
// sequential pipeline (run). A failed run releases the chain.
func (c *Chain) Run(ctx context.Context, table *storage.Table, specs []window.Spec, cfg Config) (_ *Metrics, err error) {
	if c.plan == nil {
		c.Schema, c.Rows = table.Schema, table.Rows
		return &Metrics{}, nil
	}
	defer func() {
		if err != nil {
			c.Release()
		}
	}()
	// An empty input runs sequentially: partitions of it would all be
	// empty, skipping the per-step spec validation.
	if cfg.Parallelism > 1 && table.Len() > 0 {
		segs := Segments(c.plan)
		if slices.ContainsFunc(segs, func(s Segment) bool { return !s.Key.Empty() }) {
			return c.runSegments(ctx, table, specs, cfg, segs)
		}
	}
	return c.run(ctx, table, specs, cfg)
}

// run is the sequential pipeline. A chain with L = lastReorder(plan) > 0
// owns one row array for its whole life (rowArray): copies of the rows in
// the chain's arena with exactly L spare slots. Every step up to L drains
// its reorder back into that array, and
// the steps before L evaluate over it and extend each row in place; from L
// on the order is final, and step L and every later step evaluate into the
// Chain's tail vectors, carved from the arena's vector slabs in one piece
// with the column the steps before L evaluate into, which no rewind
// reaches (storage.TupleArena.Values). With L = 0 (one
// leading reorder, or none — every shared-subplan suffix) there is no copy
// at all: the reorder permutes headers of the table's own tuples, which are
// never extended, so any number of statements may run over one table or
// one SharedSegment at once.
//
// A spec reads the columns that are in the tuples when it runs: the input
// schema plus the derived columns of steps before min(i, L). Every step
// evaluates with the workspace's window.Evaluator; a step before L
// evaluates into the one column carved for all of them, then extends each
// row with its value.
//
// Each step drains its (lazily reordering) stream fully before it
// evaluates, so per-step metrics are exact.
//
// The row array, every row read back from a spill, the column of the steps
// before L, the tail vectors and the header arrays the reorders leave (a
// Full Sort's buffer, a drained reorder's order) are carved from the
// chain's arena: from a pooled one (NewChain) they are slabs an earlier
// statement handed back, and Chain.Release — the statement's cursor
// closing — hands them on. Everything else the run uses comes from its
// workspace, which goes back when the run returns.
func (c *Chain) run(ctx context.Context, table *storage.Table, specs []window.Spec, cfg Config) (*Metrics, error) {
	steps := c.plan.Steps
	var comparisons int64
	metrics := &Metrics{Steps: make([]StepMetrics, 0, len(steps))}
	live := trace.LiveFromContext(ctx)
	start := time.Now()
	last := lastReorder(c.plan)
	n := table.Len()
	tableBlocks := int64(table.ByteSize()) / int64(cfg.blockSize())

	c.Schema, c.Rows = table.Schema, table.Rows
	ws := getWorkspace(cfg)
	defer ws.giveBack()
	rcfg := ws.reorderConfig(cfg, &comparisons, c.arena)
	stats := ws.store.Stats()
	// inTuple (the columns a spec can read) is a prefix of the executed schema.
	columns := append(make([]storage.Column, 0, table.Schema.Len()+len(steps)), table.Schema.Columns...)
	c.Schema = &storage.Schema{Columns: columns}
	inTuple := &storage.Schema{Columns: columns}
	own, ev := &ws.rows, &ws.ev
	// The tail vectors and, with L > 0, the column the steps before L
	// evaluate into are one piece of the arena's vector slabs.
	cols := len(steps) - last
	if last > 0 {
		cols++
	}
	tails := c.arena.Values(cols * n)
	var before []storage.Value
	if last > 0 {
		own.fill(table, rcfg.Arena)
		c.Rows = own.rows
		before, tails = tails[:n:n], tails[n:]
	}

	for i, step := range steps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if step.WF.ID < 0 || step.WF.ID >= len(specs) {
			return nil, fmt.Errorf("exec: plan references wf%d outside specs", step.WF.ID)
		}
		spec := specs[step.WF.ID]
		if err := spec.Validate(inTuple); err != nil {
			return nil, fmt.Errorf("exec: wf%d: %w", step.WF.ID, err)
		}
		columns = append(columns, spec.OutputColumn())
		c.Schema.Columns = columns
		stepStart := time.Now()
		if i == 0 {
			// Sizing the input and copying it into the row array is the first
			// step's set-up: the steps then account for the chain's Elapsed.
			stepStart = start
		}
		r0, w0, c0 := stats.BlocksRead(), stats.BlocksWritten(), comparisons

		var detail func() string
		if step.Reorder != core.ReorderNone {
			var err error
			if last == 0 {
				c.Rows, detail, err = reorderShared(table.Rows, step, cfg, rcfg, tableBlocks)
			} else {
				detail, err = own.reorder(step, cfg, rcfg, tableBlocks)
				c.Rows = own.rows
			}
			if err != nil {
				return nil, fmt.Errorf("exec: wf%d %s reorder: %w", step.WF.ID, step.Reorder, err)
			}
			if len(c.Rows) != n {
				return nil, fmt.Errorf("exec: wf%d %s reorder emitted %d of %d rows", step.WF.ID, step.Reorder, len(c.Rows), n)
			}
		}
		if i < last {
			if err := ev.EvaluateSlice(own.rows, spec, before); err != nil {
				return nil, fmt.Errorf("exec: wf%d evaluate: %w", step.WF.ID, err)
			}
			for k, v := range before {
				own.rows[k] = own.rows[k].Extend(v)
			}
			inTuple.Columns = columns
		} else {
			if i == last {
				c.Tail = make([][]storage.Value, 0, len(steps)-last)
			}
			k := len(c.Tail)
			col := tails[k*n : (k+1)*n : (k+1)*n]
			if err := ev.EvaluateSlice(c.Rows, spec, col); err != nil {
				return nil, fmt.Errorf("exec: wf%d evaluate: %w", step.WF.ID, err)
			}
			c.Tail = append(c.Tail, col)
		}

		sm := StepMetrics{
			WFID:          step.WF.ID,
			Reorder:       step.Reorder,
			BlocksRead:    stats.BlocksRead() - r0,
			BlocksWritten: stats.BlocksWritten() - w0,
			Comparisons:   comparisons - c0,
			Rows:          int64(n),
			Duration:      time.Since(stepStart),
		}
		if detail != nil {
			sm.Detail = detail()
		}
		metrics.Steps = append(metrics.Steps, sm)
		// Per-step progress becomes visible in /debug/queries while the
		// chain is still running; atomic adds once per step, not per row.
		live.AddRowsScanned(sm.Rows)
		live.AddBlocks(sm.BlocksRead, sm.BlocksWritten)
	}

	metrics.BlocksRead = stats.BlocksRead()
	metrics.BlocksWritten = stats.BlocksWritten()
	metrics.Comparisons = comparisons
	metrics.Elapsed = time.Since(start)
	return metrics, nil
}
