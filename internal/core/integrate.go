package core

import (
	"repro/internal/attrs"
)

// This file implements the Section 5 "tightly integrated" optimization:
// the evaluation order of C2's prefixable groups (and of C1's cover sets
// when C2 is empty) is a degree of freedom (Section 4.6), so among the
// cost-equal chains we can pick the one whose output ordering (partially)
// satisfies the query's ORDER BY — letting the final sort be skipped
// entirely or downgraded to a partial sort of already-formed groups.

// OrderSatisfiedPrefix returns how many leading elements of the required
// ordering are already guaranteed by a stream with property p. A global
// ordering requires a single segment (X = ∅).
func OrderSatisfiedPrefix(p Props, order attrs.Seq) int {
	if len(order) == 0 {
		return 0
	}
	if !p.X.Empty() {
		return 0
	}
	return len(p.Y.LCP(order))
}

// CSOAligned runs CSO and then, following Section 5, searches the
// reshufflings that move each independent unit (a prefixable group of C2,
// or a cover set of C1 when C2 is empty) to the end of the chain, returning
// the chain whose final ordering satisfies the longest prefix of finalOrder.
// Under the relation size assumption all candidates cost the same, so the
// reshuffle is free; ties keep the default chain. An empty finalOrder is
// just CSO. The functions are partitioned once, for every candidate.
func CSOAligned(ws []WF, in Props, opt Options, finalOrder attrs.Seq) (*Plan, error) {
	parts := partitionCSO(ws, in, opt)
	best, err := parts.chain(ws, in, opt, -1)
	if err != nil || len(finalOrder) == 0 {
		return best, err
	}
	bestSat := OrderSatisfiedPrefix(best.FinalProps(in), finalOrder)
	baseCost := opt.Cost.PlanCost(best)
	for u := range parts.units() {
		plan, err := parts.chain(ws, in, opt, u)
		if err != nil {
			continue // an ordering that fails validation is just skipped
		}
		if opt.Cost.PlanCost(plan) > baseCost+1e-9 {
			continue // never trade execution cost for ordering
		}
		if sat := OrderSatisfiedPrefix(plan.FinalProps(in), finalOrder); sat > bestSat {
			best, bestSat = plan, sat
		}
	}
	return best, nil
}
