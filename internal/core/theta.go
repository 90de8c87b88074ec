package core

import (
	"slices"

	"repro/internal/attrs"
)

// This file implements Definition 5 (prefixable sets) and the θ(Pi)
// computation of Section 4.5.1: the longest sequence θ such that every
// wfj ∈ Pi has a permutation →WPKj with θ ≤ →WPKj ∘ WOKj.

// consumeState walks one window function's key while a candidate common
// prefix is being extended: partitioning attributes may be consumed in any
// order (and, being grouping attributes, under any direction), after which
// the ordering key must be consumed verbatim.
type consumeState struct {
	remPK attrs.Set
	okPos int
}

// canConsume reports whether the function in state s accepts e as the next
// common-prefix element, returning the advanced state.
func (s consumeState) canConsume(wf WF, e attrs.Elem) (consumeState, bool) {
	if !s.remPK.Empty() {
		if s.remPK.Contains(e.Attr) {
			s.remPK = s.remPK.Remove(e.Attr)
			return s, true
		}
		return s, false
	}
	if s.okPos < len(wf.OK) && wf.OK[s.okPos] == e {
		s.okPos++
		return s, true
	}
	return s, false
}

// Prefixable implements Definition 5: ws is prefixable iff the longest
// common permuted prefix is non-empty, i.e. iff Theta(ws) ≠ ε. By Theorem 8
// a prefixable set can be evaluated with one FS/HS plus SS reorderings.
func Prefixable(ws []WF) bool {
	if len(ws) == 0 {
		return true
	}
	return len(Theta(ws)) > 0
}

// FirstElems returns the elements that can begin →WPK ∘ WOK for wf: every
// partitioning attribute (ascending canonical form), or the first ordering
// element when the partitioning key is empty.
func FirstElems(wf WF) []attrs.Elem {
	if !wf.PK.Empty() {
		out := make([]attrs.Elem, 0, wf.PK.Len())
		for _, id := range wf.PK.IDs() {
			out = append(out, attrs.Asc(id))
		}
		return out
	}
	if len(wf.OK) > 0 {
		return []attrs.Elem{wf.OK[0]}
	}
	return nil
}

// Theta computes θ(ws), the longest sequence θ with θ ≤ →WPKj ∘ WOKj for
// every wfj (choosing permutations per function). Ties between equally long
// sequences are broken deterministically by preferring lexicographically
// smaller attribute IDs at each step. The search is exact: a DFS over
// candidate next elements, which is tiny for realistic attribute counts.
//
// Candidate elements at each step are drawn from the first function's
// consumable elements, since a common prefix element must be consumable by
// all functions.
func Theta(ws []WF) attrs.Seq {
	if len(ws) == 0 {
		return nil
	}
	states := make([]consumeState, len(ws))
	for i, wf := range ws {
		states[i] = consumeState{remPK: wf.PK}
	}
	var best attrs.Seq
	var cur attrs.Seq
	var dfs func()
	dfs = func() {
		if len(cur) > len(best) {
			best = cur.Clone()
		}
		for _, e := range candidateElems(ws, states, cur.Attrs()) {
			next := make([]consumeState, len(ws))
			ok := true
			for i, wf := range ws {
				ns, can := states[i].canConsume(wf, e)
				if !can {
					ok = false
					break
				}
				next[i] = ns
			}
			if !ok {
				continue
			}
			saved := states
			states = next
			cur = append(cur, e)
			dfs()
			cur = cur[:len(cur)-1]
			states = saved
		}
	}
	dfs()
	return best
}

// candidateElems lists the candidate next common-prefix elements: the union
// over all functions of the elements each can consume next, excluding
// already used attributes, deduplicated in deterministic order. Functions in
// the ordering-key phase contribute their exact next element (which carries
// a direction); functions still consuming partitioning attributes contribute
// ascending canonical elements (grouping is direction-insensitive, so such a
// function can also consume another function's directed element for the same
// attribute).
func candidateElems(ws []WF, states []consumeState, usedAttrs attrs.Set) []attrs.Elem {
	var out []attrs.Elem
	seen := make(map[attrs.Elem]bool)
	add := func(e attrs.Elem) {
		if !usedAttrs.Contains(e.Attr) && !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	// Directed elements first: they are the constrained ones.
	for i, wf := range ws {
		s := states[i]
		if s.remPK.Empty() && s.okPos < len(wf.OK) {
			add(wf.OK[s.okPos])
		}
	}
	for i := range ws {
		s := states[i]
		for _, id := range s.remPK.IDs() {
			add(attrs.Asc(id))
		}
	}
	return out
}

// ThetaHashPrefix returns θ′, the maximal prefix of theta whose attributes
// are partitioning attributes of every function in ws (Section 4.5.2). The
// hash key of an HS reordering must be a subset of θ′'s attributes so that
// (a) every function in the prefixable set still sees complete partitions in
// each bucket and (b) the remaining cover sets stay SS-reorderable.
func ThetaHashPrefix(theta attrs.Seq, ws []WF) attrs.Seq {
	n := 0
	for n < len(theta) && !slices.ContainsFunc(ws, func(wf WF) bool { return !wf.PK.Contains(theta[n].Attr) }) {
		n++
	}
	return theta[:n:n]
}
