package sql

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/attrs"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/storage"
)

// SegmentRunner executes one statement's chain segment by segment on a
// shard node: the per-segment execution entry points behind the cluster's
// shuffle route. It runs the coordinator's plan, shipped with the statement
// text, cut where exec.Segments cuts it: every node runs the same steps
// verbatim, so every node appends the derived columns the shuffle exchanges
// — the base schema extended in plan order — in the same sequence, and each
// step's reorder is the one the coordinator's engine config chose. Build one
// with Prepared.Segments; it is immutable and safe for concurrent use, like
// the Prepared it wraps.
type SegmentRunner struct {
	p    *Prepared
	plan *core.Plan
	segs []exec.Segment
	// schemas[i] is the input schema of segment i; the last entry is the
	// executed schema.
	schemas []*storage.Schema
	pick    []int // projection over the executed schema
}

// Segments checks a coordinator's plan against this statement and returns
// the runner executing it. The plan comes off the network, so it is trusted
// only as far as core.Plan.Validate replays it over the statement's own
// window functions and every attribute a step names is a base-schema
// column; a violation is a coordination fault, never a panic.
func (p *Prepared) Segments(plan *core.Plan) (*SegmentRunner, error) {
	if p.plan == nil {
		return nil, errors.New("sql: segment execution of a window-less statement")
	}
	if plan == nil {
		return nil, errors.New("sql: segment execution without a plan")
	}
	base := p.entry.Table().Schema
	var cols attrs.Set
	for c := 0; c < base.Len(); c++ {
		cols = cols.Add(attrs.ID(c))
	}
	inSchema := func(seq attrs.Seq) bool {
		for _, e := range seq {
			if e.Attr < 0 || int(e.Attr) >= base.Len() {
				return false
			}
		}
		return true
	}
	for i, s := range plan.Steps {
		if !s.HashKey.SubsetOf(cols) || !inSchema(s.SortKey) || !inSchema(s.Alpha) || !inSchema(s.Beta) {
			return nil, fmt.Errorf("sql: shipped plan: step %d names a column outside the base schema", i)
		}
	}
	ws := make([]core.WF, len(p.specs))
	for i, s := range p.specs {
		ws[i] = s.WF(i)
	}
	if err := plan.Validate(ws, core.Unordered()); err != nil {
		return nil, fmt.Errorf("sql: shipped plan: %w", err)
	}

	r := &SegmentRunner{p: p, plan: plan, segs: exec.Segments(plan)}
	schema := base
	for _, seg := range r.segs {
		r.schemas = append(r.schemas, schema)
		for _, st := range plan.Steps[seg.Lo:seg.Hi] {
			schema = schema.WithColumn(p.specs[st.WF.ID].OutputColumn())
		}
	}
	r.schemas = append(r.schemas, schema)

	// p.pick maps output columns onto the executed schema of p.plan's own
	// step order, which the shipped plan may permute.
	pos := make(map[int]int, len(plan.Steps))
	for k, st := range plan.Steps {
		pos[st.WF.ID] = base.Len() + k
	}
	r.pick = make([]int, len(p.pick))
	for j, src := range p.pick {
		r.pick[j] = src
		if src >= base.Len() {
			r.pick[j] = pos[p.plan.Steps[src-base.Len()].WF.ID]
		}
	}
	return r, nil
}

// Segments returns the runner's segment count.
func (r *SegmentRunner) Segments() int { return len(r.segs) }

// Key returns the hash key segment seg's input is shuffled on: its common
// partition key, or ∅ — every row to one node — for a sequential segment.
func (r *SegmentRunner) Key(seg int) attrs.Set { return r.segs[seg].Key }

// sub returns segment seg's steps as a plan of their own.
func (r *SegmentRunner) sub(seg int) *core.Plan {
	s := r.segs[seg]
	return &core.Plan{Scheme: r.plan.Scheme, Steps: r.plan.Steps[s.Lo:s.Hi]}
}

// InputSchema returns the row schema segment seg consumes: the base schema
// extended with the derived columns of every earlier segment, in plan
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
// never released — the table's rows, and the strings its spills read back,
// may be its arena's — and goes with the table to the GC.
func (r *SegmentRunner) Run(ctx context.Context, seg int, in *storage.Table) (*storage.Table, *exec.Metrics, error) {
	out, m, _, err := r.p.runPlan(ctx, nil, in, r.sub(seg))
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
	out, m, par, err := r.p.runPlan(ctx, nil, in, r.sub(len(r.segs)-1))
	if err != nil {
		return nil, err
	}
	meta := Result{FinalSort: "none", Parallelism: par, Plan: r.plan, Metrics: m}
	return &Cursor{cols: r.p.outCols, src: out, pick: r.pick, meta: meta, ctx: ctx, left: out.Len()}, nil
}
