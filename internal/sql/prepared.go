package sql

import (
	"cmp"
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/attrs"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/window"
	"repro/internal/xsort"
)

// Prepared is a query carried through every phase that does not depend on
// the data: parse, table lookup, window binding, CSO (or baseline)
// planning, projection and ORDER BY resolution, and WHERE validation. What
// remains — filtering, chain execution, projection, DISTINCT, the final
// sort — happens in Open, which may be called many times and
// concurrently: a Prepared is immutable after Prepare, and every execution
// builds its own spill stores and row buffers. This is the plan-once /
// execute-many seam the engine's plan cache stores.
//
// A Prepared captures the catalog entry it was planned on; Current reports
// whether that entry is still the catalog's, so caches can drop plans whose
// table was re-registered. Executing a stale Prepared is memory-safe (the
// old entry and its table are immutable) but reads the superseded data.
type Prepared struct {
	src    string
	q      *Query
	cat    *catalog.Catalog
	entry  *catalog.Entry
	gen    uint64
	scheme Scheme
	cfg    exec.Config

	specs []window.Spec
	plan  *core.Plan // nil when the query has no window functions
	chain string     // plan.PaperString(), "" without a plan
	// suffixChain is the rendering of the chain's derivation suffix
	// (subplan.go), "" when the statement is not shareable.
	suffixChain string
	alignOrder  attrs.Seq
	wfCol       map[int]int // wf ID -> column index in the executed table
	// shareable marks a chain that splits at the subplan seam: one leading
	// heavy reorder, every later step reorder-free, sequential execution
	// (see subplan.go). scanKey and node are then its identity in the
	// shared-subplan cache (SubplanScanKey, SubplanNode).
	shareable     bool
	scanKey, node string

	outCols []storage.Column
	outSrc  []int // per output column: its base column, or ^id for window function id
	pick    []int // executed-table source column per output column

	orderKey   attrs.Seq // final ORDER BY over the output schema
	chainOrder attrs.Seq // orderKey over the executed chain's columns (through pick)
}

// SQL returns the original query text.
func (p *Prepared) SQL() string { return p.src }

// Table returns the FROM table's name as written in the query.
func (p *Prepared) Table() string { return p.q.Table }

// Plan returns the planned window-function chain (nil for window-less
// queries).
func (p *Prepared) Plan() *core.Plan { return p.plan }

// Chain returns the planned chain in the paper's notation, "" for
// window-less queries: what an execution's Meta.Chain carries.
func (p *Prepared) Chain() string { return p.chain }

// ShardLocal reports whether this statement may execute independently on
// shards hash-partitioned on shardKey, with the results concatenated and
// finalized (Input.Concat) at a coordinator, and still produce the
// single-engine values: exec.Segments leaves the chain one segment whose
// key covers the shard key, so every window function's partitioning key
// contains the shard key and no window partition spans shards. WHERE filtering and projection are
// row-local and always distribute; DISTINCT, ORDER BY and LIMIT are not
// shard-local and belong to the coordinator's finalize step. Window-less
// statements are trivially shard-local.
func (p *Prepared) ShardLocal(shardKey attrs.Set) bool {
	if shardKey.Empty() {
		return false
	}
	if p.plan == nil {
		return true
	}
	segs := exec.Segments(p.plan)
	return len(segs) == 1 && shardKey.SubsetOf(segs[0].Key)
}

// Generation returns the catalog generation the statement was prepared
// under.
func (p *Prepared) Generation() uint64 { return p.gen }

// Current reports whether the catalog entry the statement was planned on is
// still the catalog's entry for its table: the validity rule of every cache
// holding a Prepared. Registering another table leaves it current.
func (p *Prepared) Current() bool {
	e, err := p.cat.Lookup(p.q.Table)
	return err == nil && e == p.entry
}

// Limit returns the statement's LIMIT, -1 when absent.
func (p *Prepared) Limit() int64 { return p.q.Limit }

// ConcatStreams reports whether the finalize phase over a shard
// concatenation is order-insensitive and row-local — no DISTINCT and no
// ORDER BY — so a coordinator may emit the concatenation of per-shard
// output streams incrementally (applying LIMIT by early termination)
// instead of buffering it. DISTINCT and ORDER BY force materialization at
// the concatenating side.
func (p *Prepared) ConcatStreams() bool {
	return !p.q.Distinct && len(p.orderKey) == 0
}

// Prepare parses, binds and plans src against the runner's catalog without
// executing it. Parse failures carry the ErrParse class, unknown tables
// wrap catalog.ErrUnknownTable, and every other error a malformed-but-
// parseable query can provoke (unknown columns, bad window clauses,
// unsupported predicates) carries ErrBind — execution errors after a
// successful Prepare are engine faults.
func (r *Runner) Prepare(src string) (*Prepared, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return r.prepare(q, src)
}

// prepare performs every data-independent phase on a parsed query.
func (r *Runner) prepare(q *Query, src string) (*Prepared, error) {
	gen := r.Catalog.Generation()
	entry, err := r.Catalog.Lookup(q.Table)
	if err != nil {
		return nil, err
	}
	schema := entry.Table().Schema
	p := &Prepared{
		src:    src,
		q:      q,
		cat:    r.Catalog,
		entry:  entry,
		gen:    gen,
		scheme: r.Scheme,
		cfg:    r.Exec,
	}
	// The executor estimates distinct counts with the entry's statistics
	// unless the runner brought an estimator of its own.
	if p.cfg.Distinct == nil {
		p.cfg.Distinct = entry.Estimator()
	}

	if q.Where != nil {
		if err := checkPredicate(q.Where, schema); err != nil {
			return nil, classify(ErrBind, err)
		}
	}

	// Bind the window calls in SELECT order.
	windowItem := make([]int, len(q.Items)) // item index -> wf ID or -1
	for i, item := range q.Items {
		windowItem[i] = -1
		if item.Window == nil {
			continue
		}
		name := item.Alias
		if name == "" {
			name = item.Window.Func
		}
		spec, err := BindWindowCall(item.Window, schema, name)
		if err != nil {
			return nil, classify(ErrBind, err)
		}
		if err := spec.Validate(schema); err != nil {
			return nil, classify(ErrBind, err)
		}
		windowItem[i] = len(p.specs)
		p.specs = append(p.specs, spec)
	}

	// Section 5 integration: resolve the longest ORDER BY prefix whose
	// columns are base-table columns of the output; CSO aligns its chain
	// toward it. Resolution must honor SELECT-list aliases (an alias can
	// shadow a base column name), so it goes through the projected names,
	// not the base schema directly.
	for _, item := range q.OrderBy {
		c, isBase := resolveOutputColumn(q.Items, schema, item.Column)
		if !isBase {
			break
		}
		p.alignOrder = append(p.alignOrder, attrs.Elem{Attr: attrs.ID(c), Desc: item.Desc, NullsFirst: item.NullsFirst})
	}

	var plan *core.Plan
	if len(p.specs) > 0 {
		ws := p.WFs()
		opt := core.Options{
			Cost:      entry.CostParams(r.Exec.MemoryBytes, r.Exec.BlockSize),
			DisableHS: r.DisableHS,
			DisableSS: r.DisableSS,
		}
		scheme := cmp.Or(r.Scheme, SchemeCSO)
		plan, err = core.Generate(string(scheme), ws, core.Unordered(), opt, p.alignOrder)
		// Alignment toward the ORDER BY cannot pay off when the parallel
		// path will concatenate partitions (the output loses the chain's
		// nominal order and is fully sorted anyway); take CSO's cheapest
		// unaligned chain instead of paying for a dead alignment.
		if err == nil && scheme == SchemeCSO && len(p.alignOrder) > 0 && r.Exec.Parallelism > 1 && exec.Concatenates(plan) {
			plan, err = core.CSO(ws, core.Unordered(), opt)
		}
		if err != nil {
			return nil, err
		}
	}

	// Projection: the executed table is the base schema extended with one
	// derived column per chain step, so output columns resolve statically.
	for i, item := range q.Items {
		switch {
		case item.Star:
			for c := 0; c < schema.Len(); c++ {
				p.outCols = append(p.outCols, schema.Columns[c])
				p.outSrc = append(p.outSrc, c)
			}
		case item.Window != nil:
			col := p.specs[windowItem[i]].OutputColumn()
			if item.Alias != "" {
				col.Name = item.Alias
			}
			p.outCols = append(p.outCols, col)
			p.outSrc = append(p.outSrc, ^windowItem[i])
		default:
			c := schema.ColIndex(item.Column)
			if c < 0 {
				return nil, classify(ErrBind, fmt.Errorf("sql: unknown column %q", item.Column))
			}
			col := schema.Columns[c]
			if item.Alias != "" {
				col.Name = item.Alias
			}
			p.outCols = append(p.outCols, col)
			p.outSrc = append(p.outSrc, c)
		}
	}

	// Final ORDER BY over output columns.
	outSchema := storage.NewSchema(p.outCols...)
	for _, item := range q.OrderBy {
		c := outSchema.ColIndex(item.Column)
		if c < 0 {
			return nil, classify(ErrBind, fmt.Errorf("sql: ORDER BY column %q not in output", item.Column))
		}
		p.orderKey = append(p.orderKey, attrs.Elem{Attr: attrs.ID(c), Desc: item.Desc, NullsFirst: item.NullsFirst})
	}
	p.bind(plan)
	return p, nil
}

// bind derives what depends on the chain from plan: each function's column
// in the executed table — the base schema extended in plan order —, the
// projection and the ORDER BY over that table, and whether the chain splits
// at the subplan seam.
func (p *Prepared) bind(plan *core.Plan) {
	p.plan = plan
	p.wfCol = make(map[int]int, len(p.specs))
	p.chain, p.suffixChain = "", ""
	if plan != nil {
		base := p.entry.Table().Schema.Len()
		for pos, step := range plan.Steps {
			p.wfCol[step.WF.ID] = base + pos
		}
		p.chain = plan.PaperString()
	}
	p.shareable = shareableChain(plan) && p.cfg.Parallelism <= 1
	p.scanKey, p.node = "", ""
	if p.shareable {
		// A suffix names each function with no reorder before it, whatever
		// segment it is derived against: the statement's own renders it.
		if suffix, ok := core.DeriveSuffix(plan, plan.Steps[0].Out); ok {
			p.suffixChain = suffix.PaperString()
		}
		p.scanKey = strings.ToLower(p.entry.Name) + "|" + canonExpr(p.q.Where)
		p.node = core.LatticeNode(plan)
	}
	p.pick = make([]int, len(p.outSrc))
	for j, src := range p.outSrc {
		if src < 0 {
			src = p.wfCol[^src]
		}
		p.pick[j] = src
	}
	p.chainOrder = nil
	for _, e := range p.orderKey {
		e.Attr = attrs.ID(p.pick[e.Attr])
		p.chainOrder = append(p.chainOrder, e)
	}
}

// shareableChain reports whether a planned chain is a single heavy reorder
// followed by reorder-free evaluation — the physical shape the subplan
// seam (subplan.go) can split and the shared-subplan cache can serve.
func shareableChain(plan *core.Plan) bool {
	if plan == nil || len(plan.Steps) == 0 {
		return false
	}
	lead := plan.Steps[0].Reorder
	if lead != core.ReorderFS && lead != core.ReorderHS {
		return false
	}
	for _, s := range plan.Steps[1:] {
		if s.Reorder != core.ReorderNone {
			return false
		}
	}
	return true
}

// Input is what one execution of a prepared statement reads. The zero
// value is the catalog entry's rows; at most one field group is set.
type Input struct {
	// Shared is an already executed scan+reorder subplan (subplan.go): only
	// the derivation suffix runs. ChargeScan merges the segment's scan
	// metrics into this execution's — set by the execution that paid for the
	// scan, so the leader reports scan+suffix and attachers the suffix only.
	Shared     *SharedSegment
	ChargeScan bool
	// Concat is the concatenation of every shard's shard-local output, in
	// shard-index order: projected already, so only DISTINCT, ORDER BY and
	// LIMIT remain. The concatenation voids any ordering the per-shard
	// chains produced — an ORDER BY is always a full sort, exactly as after
	// a partition-concatenating parallel chain. It is read, not reordered.
	Concat *storage.Table
	// Rows is a shuffle's input to the chain's last segment: WHERE applied
	// and every earlier segment run, on the nodes, so only the last
	// segment's steps run over it.
	Rows *storage.Table
}

// Open runs the prepared statement over in and returns the cursor over its
// output: the one way to execute a Prepared. WHERE filtering and the window
// chain run here, honoring ctx at step boundaries; what the cursor defers is
// described on Cursor. shardLocal stops after the projection — no DISTINCT,
// ORDER BY or LIMIT, which only a coordinator can apply, over the
// concatenation of every shard's output (Input.Concat); it is only
// meaningful for the last stage of a statement over a sharded table, on a
// shard node. Open is safe for concurrent use on one Prepared.
func (p *Prepared) Open(ctx context.Context, in Input, shardLocal bool) (*Cursor, error) {
	cur := &Cursor{cols: p.outCols, pick: p.pick, ctx: ctx, batch: stream.BatchRows(len(p.outCols))}
	key := p.chainOrder
	var err error
	switch {
	case in.Concat != nil:
		// Projected already: a window-less chain over it. finalize reads sort
		// avoidance off the result's plan; a concatenation has none to offer
		// until it is finalized.
		cur.src, cur.pick, key = exec.NewChain(in.Concat.Schema, nil), identity(make([]int, len(p.outCols))), p.orderKey
		cur.meta = Meta{FinalSort: "none", Parallelism: 1}
		_, err = cur.src.Run(ctx, in.Concat, nil, p.cfg)
	case in.Shared != nil:
		cur.src, err = p.runSuffix(ctx, in.Shared, in.ChargeScan, &cur.meta)
	case in.Rows != nil:
		cur.src, err = p.runLast(ctx, in.Rows, &cur.meta)
	default:
		cur.src, err = p.runChain(ctx, p.entry.Table(), &cur.meta)
	}
	if err != nil {
		return nil, err
	}
	cur.work = cursorWorks.Get()
	cur.left = cur.src.Len()
	if !shardLocal {
		if cur.order = p.finalize(cur.src, cur.pick, key, &cur.meta, cur.work); cur.order != nil {
			cur.left = len(cur.order)
		}
		if p.q.Limit >= 0 {
			cur.left = int(min(int64(cur.left), p.q.Limit))
		}
	}
	if in.Concat != nil {
		cur.meta.Plan, cur.meta.Chain = p.plan, p.chain
	}
	return cur, nil
}

// ExecuteContext runs the prepared statement over the catalog entry's rows
// and materializes its output: Open, drained into one table.
func (p *Prepared) ExecuteContext(ctx context.Context) (*Result, error) {
	cur, err := p.Open(ctx, Input{}, false)
	if err != nil {
		return nil, err
	}
	return cur.Materialize(), nil
}

// runChain runs the data-dependent phases up to (and including) the window
// chain: WHERE filtering and chain execution. It fills result (the cursor's)
// with the plan, metrics and parallel degree; the chain is the executor's
// own result (rows plus tail vectors, exec.Chain), which the cursor reads
// directly — no whole-tuple table is built in between. The chain exists
// before its input does: the WHERE's survivors are carved from its arena,
// and go back to the pool with the rest of the statement's arrays.
func (p *Prepared) runChain(ctx context.Context, base *storage.Table, result *Meta) (*exec.Chain, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	chain := exec.NewChain(base.Schema, p.plan)
	windowed, err := p.filterWhere(base, chain.Headers)
	if err != nil {
		chain.Release()
		return nil, err
	}
	*result = Meta{FinalSort: "none", Parallelism: 1, EstRows: p.entry.Rows()}
	if p.plan == nil {
		_, err := chain.Run(ctx, windowed, nil, p.cfg)
		return chain, err
	}
	executed, metrics, par, err := p.runPlan(ctx, chain, windowed, p.plan)
	if err != nil {
		return nil, err
	}
	result.Plan, result.Chain = p.plan, p.chain
	result.Exec = metrics
	result.Parallelism = par
	return executed, nil
}

// runPlan executes a planned chain (p.plan or a segment sub-plan) over in
// with the prepared execution config, returning the executor's chain
// result and metrics, and the parallel degree the chain actually ran with.
// chain is the one exec.NewChain built for plan, whose arena in's rows may
// have been carved from; nil has runPlan build it.
//
// Parallelism must be set explicitly (> 1) for Chain.Run to partition: a
// zero-value Runner stays on the sequential path (facades that want the
// GOMAXPROCS default resolve it before building the Runner, as
// windowdb.Engine does).
func (p *Prepared) runPlan(ctx context.Context, chain *exec.Chain, in *storage.Table, plan *core.Plan) (*exec.Chain, *exec.Metrics, int, error) {
	if chain == nil {
		chain = exec.NewChain(in.Schema, plan)
	}
	metrics, err := chain.Run(ctx, in, p.specs, p.cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	p.estimate(metrics.Steps, plan.Steps)
	par := 1
	if metrics.PartitionedSteps > 0 {
		par = p.cfg.Parallelism
	}
	return chain, metrics, par, nil
}

// estimate sets each executed step's EstComparisons from the cost model
// the statement was planned with, over the statement's table; steps holds
// one metric per step of plan.
func (p *Prepared) estimate(steps []exec.StepMetrics, plan []core.Step) {
	if len(steps) != len(plan) {
		return
	}
	cost := p.entry.CostParams(p.cfg.MemoryBytes, p.cfg.BlockSize)
	for i, s := range plan {
		steps[i].EstComparisons = int64(cost.StepCmps(s))
	}
}

// finalize decides the statement's terminal phases — DISTINCT, the final
// ORDER BY (with Section 5's sort avoidance) and LIMIT — over the positions
// of src's rows: output column k is chain column pick[k], key the ORDER BY
// over chain columns. It returns the chain positions of the output rows in
// output order, nil meaning the chain's own sequence (which the cursor cuts
// to the LIMIT); the cursor gathers through the list, so no row is built.
// The list and the scratch behind it are the cursor's workspace w.
// These comparisons order output, not window input: they are not counted.
func (p *Prepared) finalize(src *exec.Chain, pick []int, key attrs.Seq, result *Meta, w *cursorWork) []int {
	if p.ConcatStreams() {
		return nil // LIMIT alone is the cursor's early termination
	}
	start := time.Now()
	n := src.Len()
	fm := &result.Finalize
	fm.RowsIn = int64(n)

	// When the chain's output ordering already satisfies a prefix of the key
	// (Section 5), the sort is avoided or downgraded to per-run sorting.
	sat := 0
	if len(key) > 0 {
		// A chain whose final segment ran hash-partitioned concatenates
		// partitions: its nominal final ordering holds only within each, and
		// the ORDER BY takes a full sort.
		if result.Plan != nil && (result.Exec == nil || !result.Exec.Concatenated) {
			// alignOrder is the ORDER BY's leading base-column items.
			finalProps := result.Plan.FinalProps(core.Unordered())
			sat = min(core.OrderSatisfiedPrefix(finalProps, p.alignOrder), len(key))
		}
		result.SatisfiedPrefix = sat
		switch {
		case sat == len(key):
			result.FinalSort = "avoided"
		case sat > 0:
			result.FinalSort = "partial"
		default:
			result.FinalSort = "full"
		}
	}

	// want is how many rows leave: LIMIT is not a cut after the fact but
	// bounds what DISTINCT looks for and what the sort puts in order.
	want := n
	if p.q.Limit >= 0 && p.q.Limit < int64(n) {
		want = int(p.q.Limit)
	}
	if want == 0 {
		fm.Duration = time.Since(start)
		return nil // the cursor's LIMIT, or its empty chain, yields nothing
	}
	// The candidates are every chain row or DISTINCT's survivors (evaluated
	// after the windows, per Section 1/5); the sorts order candidate indices.
	var listed []int
	if p.q.Distinct {
		stop := n
		if sat == len(key) {
			stop = want // nothing reorders them: the first want will do
		}
		listed = distinctPositions(src, pick, stop, w.listed[:0])
		w.listed, n = listed, len(listed)
		want = min(want, n)
	}
	cmp := func(i, j int, key attrs.Seq) int {
		if listed != nil {
			i, j = listed[i], listed[j]
		}
		return src.Compare(i, j, key)
	}
	var order []int
	switch {
	case sat == len(key):
		order = listed
	case sat > 0:
		order = partialSort(&w.order, &w.scratch, n, want,
			func(i, j int) int { return cmp(i, j, key[:sat]) },
			func(i, j int) int { return cmp(i, j, key[sat:]) })
	case want < n:
		fm.TopK = true
		w.order = xsort.TopK(w.order, n, want, func(i, j int) int { return cmp(i, j, key) })
		order = w.order
	default:
		order = identity(ints(&w.order, n))
		xsort.Stable(order, ints(&w.scratch, n/2), func(i, j int) int { return cmp(i, j, key) })
	}
	if listed != nil && sat < len(key) {
		for i, c := range order {
			order[i] = listed[c]
		}
	}
	fm.RowsOut = int64(want)
	fm.Duration = time.Since(start)
	return order
}
