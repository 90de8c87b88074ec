package core

import "fmt"

// Frame lattice (factor windows). Two window functions over the same table
// stand in a derivability relation a ⊑ b — "a factors through b" — when a
// stream reordered for b necessarily matches a as well: b's window is finer
// (same partitioning-key family, a longer ordering grain), so a's result is
// computable from b's physical input with a plain sequential scan and no
// reordering of its own. This is the cross-statement generalization of the
// paper's cover sets: within one statement CSO already proves Theorem 7
// coverage and shares one reorder per cover set; the lattice extends the
// same CoveringSeq test across statements so a *service* can compute the
// coarse dashboards of a correlated mix from the finest one's scan
// ("Factor Windows", Wu et al. — see PAPERS.md).
//
// Note the lattice is defined at the ordering level: a frame clause (ROWS
// k PRECEDING …) changes only the aggregate evaluated during the scan,
// never the reordering requirement, so two specs that differ solely in
// frame are at the *same* lattice node and trivially share; differing
// grains (ordering-key prefixes) are the interesting ⊑ edges.

// LatticeNode canonically names the physical reorder a planned chain asks
// of its input — the frame-lattice coordinate of the chain's scan+reorder
// subplan. Chains whose nodes are equal can share one physical reorder
// verbatim; chains whose input properties match (Props.MatchesAll) can
// share across nodes. Empty means the chain has no heavy leading reorder
// to share (SS-led or reorder-free chains).
func LatticeNode(plan *Plan) string {
	if plan == nil || len(plan.Steps) == 0 {
		return ""
	}
	s := plan.Steps[0]
	switch s.Reorder {
	case ReorderFS:
		return fmt.Sprintf("FS:%s", s.SortKey)
	case ReorderHS:
		return fmt.Sprintf("HS%s:%s", s.HashKey, s.SortKey)
	}
	return ""
}

// DeriveSuffix rewrites a planned chain for execution over a stream that
// already carries the physical property in — a shared, materialized
// scan+reorder segment. Every step becomes reorder-free: by Theorem 1 a
// matched stream evaluates its function with one sequential scan, so the
// suffix is pure window evaluation. It fails (false) when any function is
// not matched by in — the segment is not fine enough for this statement
// and the caller must fall back to private execution.
func DeriveSuffix(plan *Plan, in Props) (*Plan, bool) {
	if plan == nil {
		return nil, false
	}
	steps := make([]Step, len(plan.Steps))
	for i, s := range plan.Steps {
		step, refused := newStep(s.WF, ReorderNone, in, nil, 0)
		if refused != "" {
			return nil, false
		}
		steps[i] = step
	}
	return &Plan{Scheme: plan.Scheme + "+factored", Steps: steps}, true
}
