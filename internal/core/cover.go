package core

import (
	"sort"

	"repro/internal/attrs"
)

// This file implements Definition 4 (cover sets): a set of window functions
// W is a cover set when some wfc ∈ W admits a single covering permutation
// γ = →WPKc ∘ WOKc such that every wfi ∈ W has a permutation →WPKi with
// →WPKi ∘ WOKi ≤ γ. By Theorem 7, reordering once to γ lets the whole cover
// set be evaluated with no further reordering.
//
// CoveringSeq constructs γ jointly for all members (pairwise coverage is not
// enough: c = ({a,b,c},(d)) covers ({a},(b)) via (a,b,c,d) and ({b},(a)) via
// (b,a,c,d), but no single γ covers both). The construction treats the first
// |WPKc| positions of γ as slots to be filled with a permutation of WPKc
// under two kinds of constraints contributed by the members:
//
//   - prefix-set constraints: a member with |WPKi| = p ≤ |WPKc| forces the
//     set of the first p slots to be exactly WPKi (so the constraint lengths
//     must form a ⊆-chain);
//   - fixed-element constraints: a member's WOKi pins exact elements
//     (attribute + direction) at specific positions.
//
// Positions at or beyond |WPKc| are the fixed tail WOKc.
//
// Direction handling: following the paper's Section 2 simplification the
// planner generates partitioning-key slots as ascending elements; a member
// ordering element landing in a slot fixes that slot to the member's exact
// element (grouping is direction-insensitive, so any direction in a WPK slot
// is sound). Members with conflicting fixed directions simply fail to share
// a cover set — a conservative, correctness-preserving outcome.

// CoveringSeq returns a covering permutation of c that simultaneously covers
// every member of members (c itself may be included; it is handled
// implicitly). requiredPrefix, when non-empty, additionally constrains γ to
// start with exactly that element sequence — used by the C2 evaluation to
// impose θ(Pi) ≤ γ (Section 4.5.1). It returns false when no such γ exists.
func CoveringSeq(c WF, members []WF, requiredPrefix attrs.Seq) (attrs.Seq, bool) {
	pc := c.PK.Len()
	tail := c.OK
	total := pc + len(tail)

	fixed := make(map[int]attrs.Elem)
	prefixSets := map[int]attrs.Set{pc: c.PK}

	fix := func(pos int, e attrs.Elem) bool {
		if pos >= pc {
			return tail[pos-pc] == e
		}
		if !c.PK.Contains(e.Attr) {
			return false
		}
		if old, ok := fixed[pos]; ok {
			return old == e
		}
		fixed[pos] = e
		return true
	}

	for i, e := range requiredPrefix {
		if i >= total || !fix(i, e) {
			return nil, false
		}
	}

	for _, m := range members {
		if m.ID == c.ID && m.PK == c.PK && m.OK.Equal(c.OK) {
			continue
		}
		pm := m.PK.Len()
		if pm+len(m.OK) > total {
			return nil, false
		}
		if pm <= pc {
			if !m.PK.SubsetOf(c.PK) {
				return nil, false
			}
			if old, ok := prefixSets[pm]; ok {
				if old != m.PK {
					return nil, false
				}
			} else {
				prefixSets[pm] = m.PK
			}
			for k, e := range m.OK {
				if !fix(pm+k, e) {
					return nil, false
				}
			}
		} else {
			// The member's partitioning key engulfs all of WPKc plus a
			// prefix of WOKc.
			if !c.PK.SubsetOf(m.PK) {
				return nil, false
			}
			d := pm - pc
			if d > len(tail) {
				return nil, false
			}
			head := tail[:d].Attrs()
			if head.Len() != d || !head.Intersect(c.PK).Empty() {
				return nil, false
			}
			if c.PK.Union(head) != m.PK {
				return nil, false
			}
			for k, e := range m.OK {
				pos := pm + k - pc
				if pos >= len(tail) || tail[pos] != e {
					return nil, false
				}
			}
		}
	}

	// Assemble the prefix: walk the ⊆-chain of prefix-set constraints,
	// placing fixed elements and filling the rest of each ring with the
	// leftover attributes in canonical ascending order.
	lengths := make([]int, 0, len(prefixSets))
	for l := range prefixSets {
		lengths = append(lengths, l)
	}
	sort.Ints(lengths)
	prefix := make(attrs.Seq, pc)
	var (
		used    attrs.Set
		prevLen int
		prevSet attrs.Set
	)
	for _, l := range lengths {
		set := prefixSets[l]
		if set.Len() != l || !prevSet.SubsetOf(set) {
			return nil, false
		}
		ring := set.Minus(prevSet)
		// Place fixed elements of this ring.
		var placed attrs.Set
		for pos := prevLen; pos < l; pos++ {
			if e, ok := fixed[pos]; ok {
				if !ring.Contains(e.Attr) || placed.Contains(e.Attr) || used.Contains(e.Attr) {
					return nil, false
				}
				prefix[pos] = e
				placed = placed.Add(e.Attr)
			}
		}
		// Fill the free slots with the remaining ring attributes.
		remaining := ring.Minus(placed).IDs()
		ri := 0
		for pos := prevLen; pos < l; pos++ {
			if _, ok := fixed[pos]; ok {
				continue
			}
			if ri >= len(remaining) {
				return nil, false
			}
			prefix[pos] = attrs.Asc(remaining[ri])
			ri++
		}
		used = used.Union(set)
		prevLen, prevSet = l, set
	}
	return prefix.Concat(tail), true
}

// Covers reports whether c can cover m (pairwise form of Definition 4).
func Covers(c, m WF) bool {
	_, ok := CoveringSeq(c, []WF{m}, nil)
	return ok
}

// FindCovering searches ws for a covering window function and its covering
// permutation; it reports failure when ws is not a cover set. requiredPrefix
// is threaded through to CoveringSeq. Candidates are tried in a
// deterministic order: decreasing key length |WPK|+|WOK|, then increasing ID
// (the covering function necessarily has a maximal key).
func FindCovering(ws []WF, requiredPrefix attrs.Seq) (WF, attrs.Seq, bool) {
	for _, c := range longestKeyFirst(ws) {
		if seq, ok := CoveringSeq(c, ws, requiredPrefix); ok {
			return c, seq, true
		}
	}
	return WF{}, nil, false
}

// IsCoverSet reports whether ws satisfies Definition 4.
func IsCoverSet(ws []WF) bool {
	if len(ws) == 0 {
		return true
	}
	_, _, ok := FindCovering(ws, nil)
	return ok
}
