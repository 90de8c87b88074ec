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
	"unsafe"

	"repro/internal/attrs"
	"repro/internal/core"
	"repro/internal/pagestore"
	"repro/internal/recycle"
	"repro/internal/reorder"
	"repro/internal/storage"
	"repro/internal/stream"
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
	inTuple := table.Schema // the columns a spec can read
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
			inTuple = inTuple.WithColumn(spec.OutputColumn())
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
		c.Schema = c.Schema.WithColumn(spec.OutputColumn())

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

// workspace is what one run of a chain, or one shared scan, borrows from
// workspaces beside its arena and gives back however it returns: the spill
// store, whose released files wait in it for the next run's Create; the
// counter of the rows the sorts placed by grouping; the evaluator every
// step evaluates with; and the row array's segment starts. So a warm run
// allocates neither a file per spill nor an evaluator buffer per chain.
type workspace struct {
	store   *pagestore.Store
	site    spillSite // what store was made for
	grouped int64
	ev      window.Evaluator
	rows    rowArray
}

// spillSite is where a store's files live: what a run's Config says about
// them.
type spillSite struct {
	blockSize  int
	fileBacked bool
	tempDir    string
}

var workspaces = recycle.NewList((*workspace).bytes)

// getWorkspace borrows a workspace whose store spills where cfg says, with
// its counters at zero.
func getWorkspace(cfg Config) *workspace {
	w := workspaces.Get()
	site := spillSite{blockSize: cfg.blockSize()}
	if cfg.FileBacked {
		site.fileBacked, site.tempDir = true, cfg.TempDir
	}
	if w.store == nil || w.site != site {
		if site.fileBacked {
			w.store = pagestore.NewFileBacked(site.tempDir, site.blockSize, nil)
		} else {
			w.store = pagestore.NewMem(site.blockSize, nil)
		}
		w.site = site
	}
	w.store.Stats().Reset()
	w.grouped = 0
	return w
}

// giveBack clears what of w could hold a row — the row array's headers are
// the arena's, so it drops them — and puts w back. Every spill file of the
// run has been released.
func (w *workspace) giveBack() {
	w.rows = rowArray{starts: w.rows.starts[:0], spare: w.rows.spare[:0]}
	workspaces.Put(w)
}

// bytes is the memory w retains.
func (w *workspace) bytes() int64 {
	n := int64(unsafe.Sizeof(*w)) + w.ev.Bytes() + int64(cap(w.rows.starts)+cap(w.rows.spare))*int64(unsafe.Sizeof(0))
	if w.store != nil {
		n += w.store.Bytes()
	}
	return n
}

// reorderConfig builds what every reorder of the run works with: the unit
// memory, the workspace's store, the arena — whose rows have the chain's
// row width as capacity, so whatever spills comes back with room for every
// derived column still to be appended — and the counters: comparisons and
// the rows the sorts placed by grouping, which applyReorder's details read.
func (w *workspace) reorderConfig(cfg Config, comparisons *int64, arena *storage.TupleArena) reorder.Config {
	return reorder.Config{
		MemoryBytes: cfg.MemoryBytes,
		Store:       w.store,
		Comparisons: comparisons,
		Grouped:     &w.grouped,
		Arena:       arena,
	}
}

// applyReorder puts step's reordering operator over in. detail renders the
// operator's statistics for StepMetrics.Detail and is nil for a step
// without a reorder; Segmented Sort counts while it streams, so call it
// once out is drained. tableBlocks is B(R) of the chain's input, for the
// Hashed Sort bucket-count policy.
func applyReorder(in stream.Stream, step core.Step, cfg Config, rcfg reorder.Config, tableBlocks int64) (out stream.Stream, detail func() string, err error) {
	grouped, g0 := rcfg.Grouped, *rcfg.Grouped
	switch step.Reorder {
	case core.ReorderFS:
		var st reorder.FSStats
		out, st, err = reorder.FullSort(in, step.SortKey, rcfg)
		detail = func() string {
			return fmt.Sprintf("runs=%d passes=%d inmem=%v grouped=%d", st.Sort.InitialRuns, st.Sort.MergePasses, st.Sort.InMemory, st.Sort.Grouped)
		}
	case core.ReorderHS:
		opt := reorder.HSOptions{
			HashKey: step.HashKey.IDs(),
			SortKey: step.SortKey,
			Buckets: cfg.HSBuckets,
		}
		if cfg.Distinct != nil {
			opt.DistinctHint = cfg.Distinct(step.HashKey)
		}
		if opt.Buckets <= 0 {
			opt.Buckets = int(core.HSBucketCount(opt.DistinctHint, tableBlocks, int64(cfg.MemoryBytes)/int64(cfg.blockSize())))
		}
		out, _, err = reorder.HashedSort(in, opt, rcfg)
		hs, _ := out.(interface{ Stats() reorder.HSStats })
		detail = func() string {
			st := hs.Stats()
			return fmt.Sprintf("buckets=%d spilled=%d resident=%d external=%d grouped=%d", st.Buckets, st.SpilledBuckets, st.MemoryResident, st.ExternalBuckets, *grouped-g0)
		}
	case core.ReorderSS:
		opt := reorder.SSOptions{Alpha: step.Alpha, Beta: step.Beta}
		if step.In.Grouped {
			// Grouped inputs carry their segment structure in the data.
			opt.SegmentBy = step.In.X.IDs()
		}
		var st *reorder.SSStats
		out, st, err = reorder.SegmentedSort(in, opt, rcfg)
		detail = func() string {
			return fmt.Sprintf("segments=%d units=%d external=%d grouped=%d", st.Segments, st.Units, st.ExternalUnits, *grouped-g0)
		}
	default:
		out = in
	}
	return out, detail, err
}

// reorderShared puts step's reordering operator over rows that are not the
// caller's to write — a table's, a SharedSegment's — and drains it into an
// order of its own: the reorder permutes headers of the input's own tuples
// (or of rows it read back from a spill).
func reorderShared(rows []storage.Tuple, step core.Step, cfg Config, rcfg reorder.Config, tableBlocks int64) ([]storage.Tuple, func() string, error) {
	out, detail, err := applyReorder(stream.FromTuples(rows), step, cfg, rcfg, tableBlocks)
	if err != nil {
		return nil, nil, err
	}
	ordered, err := finalOrder(out, len(rows), rcfg.Arena)
	return ordered, detail, err
}

// finalOrder drains out, a reorder over n rows, into an array of its own
// carved from arena. A Full Sort's output is a tuple slice already and is
// taken as it stands rather than copied.
func finalOrder(out stream.Stream, n int, arena *storage.TupleArena) ([]storage.Tuple, error) {
	if rows, ok := stream.BackingTuples(out); ok {
		return rows, nil
	}
	return stream.AppendTuples(arena.Headers(n), out)
}

// rowArray is the one row array of a chain with a reorder after its first
// step: every reorder reads it and is drained back into it, and every
// evaluation before the last reorder extends its rows where they lie.
type rowArray struct {
	rows []storage.Tuple
	// starts lists the indices in rows at which a segment begins; spare is
	// the list the next drain fills — two, because the reorder being drained
	// is still reading starts.
	starts, spare []int
}

// fill makes the array a copy of the input tuples in the chain's arena, with
// no segment starts: the rows as its first value slab and the array in one
// header slab. Each row comes out
// with the chain's width as capacity, spare slots for the derived columns
// that must stay in the tuple (those of the steps before the chain's last
// reorder), so window evaluation (Tuple.Extend) grows rows in place. The
// copy also severs those steps from the engine-owned table rows, which must
// never observe the appends — and the three-index slices pin each row's
// capacity to its own arena region, so a row cannot grow into its
// neighbour. In-place
// extension is safe because the chain never duplicates a row reference:
// reorders permute, and each step extends each row of the array once. A
// reorder that spills drops the rows it wrote out and reads them back into
// the same arena (reorder.Config.Arena) — over this slab, once the whole
// input is on disk — so the discipline holds across FS runs, HS buckets and
// SS units too. Strings are not copied: the table's outlive the chain.
func (a *rowArray) fill(table *storage.Table, arena *storage.TupleArena) {
	rows := arena.Headers(len(table.Rows))
	arena.Reserve(len(table.Rows))
	for _, t := range table.Rows {
		rows = append(rows, arena.Copy(t))
	}
	a.rows, a.starts = rows, a.starts[:0]
}

// reorder puts step's reordering operator over the array and drains it back
// into the array. A reorder that hands back a tuple slice (Full Sort: the
// array itself, sorted where it lay, or the slice its merge filled) has
// that slice become the array. Any other holds what it has read and not yet
// emitted in buffers of its own, and a 1:1 operator cannot emit a row
// before reading it, so slot k is always behind the read position when
// output row k lands in it; both halves are checked, not assumed.
func (a *rowArray) reorder(step core.Step, cfg Config, rcfg reorder.Config, tableBlocks int64) (detail func() string, err error) {
	in := stream.FromArray(a.rows, a.starts)
	out, detail, err := applyReorder(in, step, cfg, rcfg, tableBlocks)
	if err != nil {
		return nil, err
	}
	starts := a.spare[:0]
	if sorted, ok := stream.BackingTuples(out); ok {
		a.rows = sorted
	} else {
		unread := in.(stream.Sized)
		k := 0
		for r, ok := out.Next(); ok; r, ok = out.Next() {
			if k >= len(a.rows)-unread.Remaining() {
				out.Close() // a reorder cut short gives up its spill files
				return nil, fmt.Errorf("output row %d emitted before input row %d was read", k, k)
			}
			if r.Boundary && k > 0 {
				starts = append(starts, k)
			}
			a.rows[k] = r.Tuple
			k++
		}
		if err := out.Close(); err != nil {
			return nil, err
		}
		a.rows = a.rows[:k]
	}
	a.starts, a.spare = starts, a.starts
	return detail, nil
}
