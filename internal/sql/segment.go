package sql

import (
	"context"
	"fmt"

	"repro/internal/attrs"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/storage"
)

// SegmentPlan is a coordinator's decision to execute a prepared statement's
// chain as a sequence of distributed segments (exec.DivergentSegments): the
// Section 3.5 parallelism condition holds per segment, so each segment runs
// fully partitioned on its own common key, with rows re-shuffled on the
// next segment's key between segments.
//
// The plan is shipped to every shard node with the statement text, and the
// nodes execute the shipped step order rather than their own: node-local
// statistics may legitimately produce a different chain, but the shuffle
// exchanges intermediate rows — the base schema extended with the derived
// columns evaluated so far — between nodes, so every node must append those
// columns in the same sequence. Local statistics still pick each step's
// reorder operator (core.OrderedPlan); they can never change the order or
// the wire schema.
type SegmentPlan struct {
	// Order lists the statement's window-function IDs (SELECT binding
	// positions) in coordinator execution order, segments concatenated.
	Order []int `json:"order"`
	// Ends[i] is the end offset (into Order) of segment i; the last entry
	// equals len(Order).
	Ends []int `json:"ends"`
	// Keys[i] is segment i's common partition key as base-schema column
	// indices: the hash key rows shuffle on before the segment runs.
	Keys [][]int `json:"keys"`
}

// Segments returns the segment count.
func (sp *SegmentPlan) Segments() int { return len(sp.Ends) }

// start returns the offset into Order where segment i begins.
func (sp *SegmentPlan) start(i int) int {
	if i == 0 {
		return 0
	}
	return sp.Ends[i-1]
}

// SegmentPlan derives the statement's shuffle segmentation from its planned
// chain; nil only for a window-less statement. Where the chain does not
// split (exec.DivergentSegments: some step has an empty partitioning key, or
// a post-divergence segment does not begin with an order-rebuilding
// reorder) it is the single-site plan — the whole chain as one segment with
// an empty key, which hashes every row to one node: Section 3.5's
// "inherently sequential" case run on the shuffle's own data plane.
func (p *Prepared) SegmentPlan() *SegmentPlan {
	if p.plan == nil {
		return nil
	}
	segs := exec.DivergentSegments(p.plan)
	if len(segs) == 0 {
		segs = []exec.Segment{{Lo: 0, Hi: len(p.plan.Steps)}}
	}
	sp := &SegmentPlan{}
	for _, s := range segs {
		for _, st := range p.plan.Steps[s.Lo:s.Hi] {
			sp.Order = append(sp.Order, st.WF.ID)
		}
		sp.Ends = append(sp.Ends, s.Hi)
		ids := s.Key.IDs()
		key := make([]int, len(ids))
		for i, id := range ids {
			key[i] = int(id)
		}
		sp.Keys = append(sp.Keys, key)
	}
	return sp
}

// SegmentRunner executes one statement's chain segment by segment on a
// shard node, following a coordinator's SegmentPlan: the per-segment
// execution entry points behind the cluster's shuffle route. Build one with
// Prepared.Segments; it is immutable and safe for concurrent use, like the
// Prepared it wraps.
type SegmentRunner struct {
	p  *Prepared
	sp *SegmentPlan

	subs    []*core.Plan      // per-segment sub-plan over the shipped order
	schemas []*storage.Schema // schemas[i] = input schema of segment i; last entry = final executed schema
	pick    []int             // projection over the Order-extended schema
}

// Segments validates a coordinator SegmentPlan against this statement and
// returns the runner executing it. The plan must name every window function
// exactly once, its segment keys must be subsets of every member function's
// partitioning key — non-empty unless the plan is one segment, the
// single-site form — and its offsets must be well-formed; violations are
// coordination faults, not user errors. Runners are
// memoized per plan fingerprint: a node executes the same statement's
// stages once per round plus the final stream, all against one immutable
// segmentation.
func (p *Prepared) Segments(sp *SegmentPlan) (*SegmentRunner, error) {
	if sp == nil {
		return nil, fmt.Errorf("sql: malformed segment plan")
	}
	key := fmt.Sprintf("%v|%v|%v", sp.Order, sp.Ends, sp.Keys)
	p.segMu.Lock()
	r, ok := p.segRunners[key]
	p.segMu.Unlock()
	if ok {
		return r, nil
	}
	r, err := p.buildSegments(sp)
	if err != nil {
		return nil, err
	}
	p.segMu.Lock()
	if p.segRunners == nil {
		p.segRunners = make(map[string]*SegmentRunner)
	}
	p.segRunners[key] = r
	p.segMu.Unlock()
	return r, nil
}

// buildSegments performs Segments' validation and per-segment sub-planning.
func (p *Prepared) buildSegments(sp *SegmentPlan) (*SegmentRunner, error) {
	if p.plan == nil {
		return nil, fmt.Errorf("sql: segment execution of a window-less statement")
	}
	if len(sp.Order) != len(p.specs) || len(sp.Ends) != len(sp.Keys) || len(sp.Ends) == 0 {
		return nil, fmt.Errorf("sql: malformed segment plan")
	}
	if sp.Ends[len(sp.Ends)-1] != len(sp.Order) {
		return nil, fmt.Errorf("sql: segment plan ends at %d of %d steps", sp.Ends[len(sp.Ends)-1], len(sp.Order))
	}
	seen := make([]bool, len(p.specs))
	for _, id := range sp.Order {
		if id < 0 || id >= len(p.specs) || seen[id] {
			return nil, fmt.Errorf("sql: segment plan order %v is not a permutation of the statement's %d window functions", sp.Order, len(p.specs))
		}
		seen[id] = true
	}

	base := p.entry.Table().Schema
	r := &SegmentRunner{p: p, sp: sp}
	opt := core.Options{
		Cost:      p.entry.CostParams(p.cfg.MemoryBytes, p.cfg.BlockSize),
		DisableHS: p.disableHS,
		DisableSS: p.disableSS,
	}
	schema := base
	for i := 0; i < sp.Segments(); i++ {
		lo, hi := sp.start(i), sp.Ends[i]
		if hi <= lo {
			return nil, fmt.Errorf("sql: empty segment %d", i)
		}
		var key attrs.Set
		for _, c := range sp.Keys[i] {
			if c < 0 || c >= base.Len() {
				return nil, fmt.Errorf("sql: segment %d key column %d outside the base schema", i, c)
			}
			key = key.Add(attrs.ID(c))
		}
		if key.Empty() && sp.Segments() > 1 {
			return nil, fmt.Errorf("sql: segment %d has no shuffle key", i)
		}
		ws := make([]core.WF, 0, hi-lo)
		for _, id := range sp.Order[lo:hi] {
			wf := p.specs[id].WF(id)
			if !key.SubsetOf(wf.PK) {
				return nil, fmt.Errorf("sql: segment %d key %s not contained in wf%d's partitioning key %s", i, key, id, wf.PK)
			}
			ws = append(ws, wf)
		}
		// The segment's input arrives hash-partitioned on key in arbitrary
		// interleaved order — exactly the Unordered property — whether it is
		// the node's raw partition or a shuffled intermediate.
		sub, err := core.OrderedPlan(ws, core.Unordered(), opt)
		if err != nil {
			return nil, err
		}
		r.subs = append(r.subs, sub)
		r.schemas = append(r.schemas, schema)
		for _, id := range sp.Order[lo:hi] {
			schema = schema.WithColumn(p.specs[id].OutputColumn())
		}
	}
	r.schemas = append(r.schemas, schema)

	// Re-derive the projection against the shipped order: p.pick maps output
	// columns onto the executed schema of p.plan's own step order, which the
	// coordinator's order may permute.
	r.pick = make([]int, len(p.pick))
	for j, src := range p.pick {
		if src < base.Len() {
			r.pick[j] = src
			continue
		}
		wfID := p.plan.Steps[src-base.Len()].WF.ID
		pos := -1
		for k, id := range sp.Order {
			if id == wfID {
				pos = k
				break
			}
		}
		r.pick[j] = base.Len() + pos
	}
	return r, nil
}

// Segments returns the runner's segment count.
func (r *SegmentRunner) Segments() int { return len(r.subs) }

// InputSchema returns the row schema segment seg consumes: the base schema
// extended with the derived columns of every earlier segment, in shipped
// order — the wire schema of the shuffle that feeds the segment.
func (r *SegmentRunner) InputSchema(seg int) *storage.Schema { return r.schemas[seg] }

// FilterBase applies the statement's WHERE clause to the node's local
// partition: the input of the first shuffle stage. Filtering before the
// first shuffle keeps discarded rows off the wire.
func (r *SegmentRunner) FilterBase(ctx context.Context) (*storage.Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.p.filterWhere(r.p.entry.Table(), nil)
}

// Run executes segment seg's chain steps over in — rows already
// hash-partitioned on the segment's key — returning the extended table and
// the executor metrics. The table is materialized: its rows are the next
// shuffle's wire rows and must carry their derived columns. The chain is
// never released — the table's rows may be its arena's — and goes with
// the table to the GC.
func (r *SegmentRunner) Run(ctx context.Context, seg int, in *storage.Table) (*storage.Table, *exec.Metrics, error) {
	out, m, _, err := r.p.runPlan(ctx, nil, in, r.subs[seg])
	if err != nil {
		return nil, nil, err
	}
	return out.Table(), m, nil
}

// StreamFinal executes the last segment over in and returns a cursor over
// the projected output — shard-local, as Prepared.Open's shardLocal is: no
// DISTINCT, ORDER BY or LIMIT, which only the coordinator can apply over
// the concatenation of every node's stream (Input.Concat).
func (r *SegmentRunner) StreamFinal(ctx context.Context, in *storage.Table) (*Cursor, error) {
	last := len(r.subs) - 1
	out, m, par, err := r.p.runPlan(ctx, nil, in, r.subs[last])
	if err != nil {
		return nil, err
	}
	meta := Result{FinalSort: "none", Parallelism: par, Plan: r.p.plan, Metrics: m}
	return &Cursor{cols: r.p.outCols, src: out, pick: r.pick, meta: meta, ctx: ctx, left: out.Len()}, nil
}
