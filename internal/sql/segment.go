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

// Bind returns the statement bound to a coordinator's plan: what a node of a
// sharded table executes, so that the chain it runs — and the shared scan it
// keys on (SubplanNode) — is the chain the coordinator planned and reports.
// Every node runs the same steps verbatim, so every node appends the derived
// columns the shuffle exchanges — the base schema extended in plan order — in
// the same sequence, and each step's reorder is the one the coordinator's
// engine config chose. The plan comes off the network, so it is trusted only
// as far as core.Plan.Validate replays it over the statement's own window
// functions and every attribute a step names is a base-schema column; a
// violation is a coordination fault, never a panic. A nil plan binds only a
// window-less statement.
func (p *Prepared) Bind(plan *core.Plan) (*Prepared, error) {
	switch {
	case plan == nil && p.plan == nil:
		return p, nil
	case plan == nil:
		return nil, errors.New("sql: shipped plan: none for a statement with window functions")
	case p.plan == nil:
		return nil, errors.New("sql: shipped plan for a window-less statement")
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
	if err := plan.Validate(p.WFs(), core.Unordered()); err != nil {
		return nil, fmt.Errorf("sql: shipped plan: %w", err)
	}
	bound := *p
	bound.bind(plan)
	return &bound, nil
}

// SegmentRunner executes a statement's chain segment by segment on a shard
// node: the stages before the last of a sharded statement that shuffles. It
// cuts the statement's plan — on a node, the coordinator's (Bind) — where
// exec.Segments cuts it. Build one with Prepared.Segments; it is immutable
// and safe for concurrent use, like the Prepared it wraps.
type SegmentRunner struct {
	p    *Prepared
	segs []exec.Segment
	// schemas[i] is the input schema of segment i; the last entry is the
	// executed schema.
	schemas []*storage.Schema
}

// Segments returns the runner of the statement's plan: no segment for a
// window-less statement.
func (p *Prepared) Segments() *SegmentRunner {
	r := &SegmentRunner{p: p}
	if p.plan != nil {
		r.segs = exec.Segments(p.plan)
	}
	schema := p.entry.Table().Schema
	for _, seg := range r.segs {
		r.schemas = append(r.schemas, schema)
		for _, st := range p.plan.Steps[seg.Lo:seg.Hi] {
			schema = schema.WithColumn(p.specs[st.WF.ID].OutputColumn())
		}
	}
	r.schemas = append(r.schemas, schema)
	return r
}

// Segments returns the runner's segment count.
func (r *SegmentRunner) Segments() int { return len(r.segs) }

// Key returns the hash key segment seg's input is shuffled on: its common
// partition key, or ∅ — every row to one node — for a sequential segment.
func (r *SegmentRunner) Key(seg int) attrs.Set { return r.segs[seg].Key }

// segmentPlan returns a segment's steps as a plan of their own.
func segmentPlan(plan *core.Plan, s exec.Segment) *core.Plan {
	return &core.Plan{Scheme: plan.Scheme, Steps: plan.Steps[s.Lo:s.Hi]}
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
// hash-partitioned on the segment's key — and returns the chain, which the
// caller releases, and the executor metrics. Segment -1, the raw stage, runs
// no step: its chain is in.
func (r *SegmentRunner) Run(ctx context.Context, seg int, in *storage.Table) (*exec.Chain, *exec.Metrics, error) {
	if seg < 0 {
		return exec.RunChain(ctx, in, nil, nil, exec.Config{})
	}
	out, m, _, err := r.p.runPlan(ctx, nil, in, segmentPlan(r.p.plan, r.segs[seg]))
	return out, m, err
}

// runLast runs the chain's last segment over rows every earlier segment
// already ran on (Input.Rows), filling result like runChain: the plan it
// reports is the whole chain.
func (p *Prepared) runLast(ctx context.Context, rows *storage.Table, result *Meta) (*exec.Chain, error) {
	if p.plan == nil {
		return nil, errors.New("sql: segment input for a window-less statement")
	}
	segs := exec.Segments(p.plan)
	out, m, par, err := p.runPlan(ctx, nil, rows, segmentPlan(p.plan, segs[len(segs)-1]))
	if err != nil {
		return nil, err
	}
	*result = Meta{FinalSort: "none", Parallelism: par, Plan: p.plan, Chain: p.chain, Exec: m}
	return out, nil
}
