package core

import (
	"slices"
	"sort"

	"repro/internal/attrs"
)

// This file implements the two partitioning problems of Section 4, both
// NP-hard (Theorems 6 and 9):
//
//   - partitioning a set of window functions into a minimum number of cover
//     sets (Section 4.4; reduction from minimum vertex coloring), solved
//     with a greedy maximum-cover heuristic;
//   - partitioning C2 into a minimum number of prefixable subsets
//     (Section 4.5; reduction from minimum set cover), solved exactly for
//     the small attribute counts of real queries via branch-and-bound set
//     cover — matching the paper's observation that its greedy heuristic
//     found the optimal partitioning for all tested queries — with the
//     O(|W|²) greedy as fallback for large inputs.

// CoverSet is an ordered cover set: Covering first (the paper's wf* — the
// first function evaluated, whose reordering serves the whole set), then the
// remaining members in decreasing key length (ties by ascending ID),
// mirroring the member order of the paper's plan tables.
type CoverSet struct {
	Covering WF
	Members  []WF // includes Covering, in evaluation order
	// Gamma is a covering permutation (with no external prefix constraint);
	// planners may recompute it with θ-prefix or alignment constraints.
	Gamma attrs.Seq
}

// Size returns the number of member functions.
func (c CoverSet) Size() int { return len(c.Members) }

func orderCoverSet(covering WF, members []WF) CoverSet {
	ordered := append([]WF{covering}, longestKeyFirst(without(members, covering.ID))...)
	gamma, _ := CoveringSeq(covering, members, nil)
	return CoverSet{Covering: covering, Members: ordered, Gamma: gamma}
}

// PartitionCoverSets partitions ws into cover sets greedily: repeatedly
// choose the candidate covering function whose maximal jointly-coverable
// subset of the remaining functions (found by branch-and-bound over the
// joint covering test) is largest. Ties prefer the lower covering ID
// (SELECT-clause order). The result is returned in selection order.
func PartitionCoverSets(ws []WF) []CoverSet {
	remaining := inIDOrder(ws)
	var out []CoverSet
	for len(remaining) > 0 {
		var (
			bestC   WF
			bestSet []WF
		)
		for _, c := range remaining {
			set := maxCoverSubset(c, remaining)
			better := false
			switch {
			case bestSet == nil:
				better = true
			case len(set) > len(bestSet):
				better = true
			case len(set) == len(bestSet) && c.ID < bestC.ID:
				// SELECT-clause order tie-break, matching the groupings the
				// paper reports for CSO on Q6–Q9.
				better = true
			}
			if better {
				bestC, bestSet = c, set
			}
		}
		out = append(out, orderCoverSet(bestC, bestSet))
		remaining = slices.DeleteFunc(remaining, func(m WF) bool {
			return slices.ContainsFunc(bestSet, func(b WF) bool { return b.ID == m.ID })
		})
	}
	return out
}

// maxCoverSubset finds a maximum subset of remaining (which includes c)
// jointly coverable with c as the covering function. Branch and bound over
// include/exclude decisions in ID order; the first maximal subset found is
// kept on ties, which preserves SELECT-order preference. Greedy ID-order
// insertion is not enough: on Q7, greedily admitting wf2 into wf5's set
// blocks the larger {wf5, wf4, wf3}.
func maxCoverSubset(c WF, remaining []WF) []WF {
	others := without(remaining, c.ID)
	best := []WF{c}
	cur := []WF{c}
	var dfs func(i int)
	dfs = func(i int) {
		if len(cur)+len(others)-i <= len(best) {
			return // cannot beat the incumbent
		}
		if i == len(others) {
			if len(cur) > len(best) {
				best = append([]WF(nil), cur...)
			}
			return
		}
		trial := append(append([]WF(nil), cur...), others[i])
		if _, ok := CoveringSeq(c, trial, nil); ok {
			cur = append(cur, others[i])
			dfs(i + 1)
			cur = cur[:len(cur)-1]
		}
		dfs(i + 1)
	}
	dfs(0)
	return best
}

// prefCand is a candidate prefixable group: the shared first element and the
// indices (into the input slice) of the functions that can start with it.
type prefCand struct {
	e       attrs.Elem
	members []int
}

// PrefixGroup is one prefixable subset Pi of C2 with the attribute element
// whose shareability formed it.
type PrefixGroup struct {
	First   attrs.Elem
	Members []WF
}

// PartitionPrefixable partitions ws into a minimum number of prefixable
// subsets (Definition 5). Feasibility of a group keyed by element e: every
// member must be able to start its key with e — i.e. e.Attr ∈ WPK (any
// direction: a partitioning slot groups under any direction), or WPK = ∅
// and WOK begins with exactly e. Minimization is exact set cover over the
// candidate first-elements (branch and bound; candidate counts are tiny),
// falling back to the paper's O(|W|²) greedy beyond 20 functions. Functions
// covered by several chosen groups are assigned to minimize the total number
// of cover sets (the quantity the next stage pays for), ties keeping the
// earlier group. Groups are returned largest-first (ties by ascending
// attribute then direction), which is also their evaluation order.
func PartitionPrefixable(ws []WF) []PrefixGroup {
	if len(ws) == 0 {
		return nil
	}
	// Candidate elements: every partitioning attribute (ascending) and every
	// WPK-less function's first ordering element.
	elemSet := map[attrs.Elem]bool{}
	for _, wf := range ws {
		for _, e := range FirstElems(wf) {
			elemSet[e] = true
		}
	}
	var cands []prefCand
	for e := range elemSet {
		var members []int
		for i, wf := range ws {
			if _, ok := (consumeState{remPK: wf.PK}).canConsume(wf, e); ok {
				members = append(members, i)
			}
		}
		if len(members) > 0 {
			cands = append(cands, prefCand{e: e, members: members})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if len(cands[i].members) != len(cands[j].members) {
			return len(cands[i].members) > len(cands[j].members)
		}
		if cands[i].e.Attr != cands[j].e.Attr {
			return cands[i].e.Attr < cands[j].e.Attr
		}
		return !cands[i].e.Desc && cands[j].e.Desc
	})

	var chosen []int
	if len(ws) <= 20 {
		chosen = exactSetCover(len(ws), cands)
	}
	if chosen == nil {
		chosen = greedySetCover(len(ws), cands)
	}
	// Keep the candidate preference order (largest first) so that the
	// default assignment of multiply-covered functions is deterministic.
	sort.Ints(chosen)

	// Assign multiply-covered functions to minimize total cover sets.
	assign := make([]int, len(ws)) // ws index -> position in chosen
	options := make([][]int, len(ws))
	for pos, ci := range chosen {
		for _, m := range cands[ci].members {
			options[m] = append(options[m], pos)
		}
	}
	for i := range ws {
		if len(options[i]) == 0 {
			// Unreachable if cover succeeded; keep a safe default.
			assign[i] = 0
			continue
		}
		assign[i] = options[i][0]
	}
	group := func(pos int) []WF { // the functions assigned to chosen[pos]
		var g []WF
		for i := range ws {
			if assign[i] == pos {
				g = append(g, ws[i])
			}
		}
		return g
	}
	countCoverSets := func() int {
		total := 0
		for pos := range chosen {
			total += len(PartitionCoverSets(group(pos)))
		}
		return total
	}
	// Local improvement over the (few) ambiguous assignments.
	for i := range ws {
		if len(options[i]) < 2 {
			continue
		}
		best, bestCost := assign[i], countCoverSets()
		for _, pos := range options[i][1:] {
			assign[i] = pos
			if c := countCoverSets(); c < bestCost {
				best, bestCost = pos, c
			}
		}
		assign[i] = best
	}

	var out []PrefixGroup
	for pos, ci := range chosen {
		if g := group(pos); len(g) > 0 {
			out = append(out, PrefixGroup{First: cands[ci].e, Members: g})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if len(out[i].Members) != len(out[j].Members) {
			return len(out[i].Members) > len(out[j].Members)
		}
		return out[i].First.Attr < out[j].First.Attr
	})
	return out
}

// exactSetCover finds a minimum set cover by branch and bound; cands must be
// sorted by decreasing coverage. Returns indices into cands, or nil if no
// cover exists (some element uncoverable).
func exactSetCover(n int, cands []prefCand) []int {
	full := uint64(1)<<uint(n) - 1
	masks := make([]uint64, len(cands))
	var all uint64
	for i, c := range cands {
		for _, m := range c.members {
			masks[i] |= 1 << uint(m)
		}
		all |= masks[i]
	}
	if all != full {
		return nil
	}
	best := make([]int, 0, len(cands))
	for i := range cands {
		best = append(best, i) // trivial upper bound: may overcount, fine
	}
	var cur []int
	var dfs func(covered uint64)
	dfs = func(covered uint64) {
		if covered == full {
			if len(cur) < len(best) {
				best = append(best[:0], cur...)
			}
			return
		}
		if len(cur)+1 >= len(best) {
			return
		}
		// Branch on the uncovered element with the fewest candidates.
		var pick int = -1
		pickCount := len(cands) + 1
		for e := 0; e < n; e++ {
			if covered&(1<<uint(e)) != 0 {
				continue
			}
			cnt := 0
			for i := range masks {
				if masks[i]&(1<<uint(e)) != 0 {
					cnt++
				}
			}
			if cnt < pickCount {
				pick, pickCount = e, cnt
			}
		}
		for i := range cands {
			if masks[i]&(1<<uint(pick)) == 0 {
				continue
			}
			cur = append(cur, i)
			dfs(covered | masks[i])
			cur = cur[:len(cur)-1]
		}
	}
	dfs(0)
	return best
}

// greedySetCover is the paper's O(|W|²) heuristic: repeatedly take the
// candidate covering the most uncovered functions.
func greedySetCover(n int, cands []prefCand) []int {
	covered := make([]bool, n)
	remaining := n
	var out []int
	for remaining > 0 {
		best, bestGain := -1, 0
		for i, c := range cands {
			gain := 0
			for _, m := range c.members {
				if !covered[m] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break // uncoverable remainder; caller validates
		}
		out = append(out, best)
		for _, m := range cands[best].members {
			if !covered[m] {
				covered[m] = true
				remaining--
			}
		}
	}
	return out
}
