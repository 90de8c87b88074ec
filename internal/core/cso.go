package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/attrs"
)

// Options configures plan generation.
type Options struct {
	// Cost supplies the statistics for cost-based FS/HS selection.
	Cost CostParams
	// DisableHS forces FS for all heavy reorders (the CSO(v1) variant of
	// Section 6.2); DisableSS disables Segmented Sort (CSO(v2)).
	DisableHS bool
	DisableSS bool
}

// CSO generates a window-function chain with the cover-set based
// optimization scheme of Section 4:
//
//	C0 — functions matched by the input relation: evaluated first, no
//	     reordering (Corollary 1);
//	C1 — SS-reorderable functions: partitioned into a minimum number of
//	     cover sets, one SS per cover set (Section 4.4, Theorem 7);
//	C2 — the rest: partitioned into a minimum number of prefixable subsets
//	     Pi (Theorem 8), each evaluated with exactly one FS/HS (for its
//	     first cover set, keyed by a θ(Pi)-prefixed covering permutation)
//	     plus one SS per remaining cover set (Section 4.5).
func CSO(ws []WF, in Props, opt Options) (*Plan, error) {
	return partitionCSO(ws, in, opt).chain(ws, in, opt, -1)
}

// csoParts is CSO's partitioning of a function list over its input, made
// once however many chains are emitted from it: C0's functions, C1's cover
// sets and C2's prefixable groups, each in evaluation order.
type csoParts struct {
	c0     []WF
	c1     []CoverSet
	groups []prefixGroup
}

// prefixGroup is one prefixable subset Pi of C2 as CSO emits it: θ(Pi),
// the hash key θ′ allows an HS of its leader (Section 4.5.2, strengthened
// Pi-wide: grouping-compatible with every member, so that later cover sets
// stay SS-reorderable and their members matched), and its cover sets.
type prefixGroup struct {
	theta attrs.Seq
	hash  attrs.Set
	csets []CoverSet
}

// partitionCSO sorts ws into C0, C1 and C2 and solves both partitioning
// problems of Section 4.
func partitionCSO(ws []WF, in Props, opt Options) csoParts {
	var c csoParts
	var c1, c2 []WF
	for _, wf := range inIDOrder(ws) {
		switch {
		case in.Matches(wf):
			c.c0 = append(c.c0, wf)
		case !opt.DisableSS && SSReorderable(in, wf):
			c1 = append(c1, wf)
		default:
			c2 = append(c2, wf)
		}
	}
	c.c1 = PartitionCoverSets(c1)
	sortCoverSets(c.c1)
	for _, g := range PartitionPrefixable(c2) {
		theta := Theta(g.Members)
		csets := PartitionCoverSets(g.Members)
		sortCoverSets(csets)
		c.groups = append(c.groups, prefixGroup{theta: theta, hash: ThetaHashPrefix(theta, g.Members).Attrs(), csets: csets})
	}
	return c
}

// units is the number of units Section 5 may reshuffle: "the Pi's of C2
// ... or the cover sets of C1 if C2 is empty".
func (c csoParts) units() int {
	if len(c.groups) > 0 {
		return len(c.groups)
	}
	return len(c.c1)
}

// chain emits CSO's chain with unit last (see units) moved to the end; -1
// moves none.
func (c csoParts) chain(ws []WF, in Props, opt Options, last int) (*Plan, error) {
	plan := &Plan{Scheme: "CSO"}
	props := in
	if err := plan.appendMatched(c.c0, props); err != nil {
		return nil, err
	}
	csets, groups := c.c1, c.groups
	if len(groups) > 0 {
		groups = moveLast(groups, last)
	} else {
		csets = moveLast(csets, last)
	}
	for _, cs := range csets {
		if err := emitSSCoverSet(plan, cs, &props); err != nil {
			return nil, err
		}
	}
	for _, g := range groups {
		if err := emitPrefixGroup(plan, g, &props, opt); err != nil {
			return nil, err
		}
	}
	if err := plan.Validate(ws, in); err != nil {
		return nil, fmt.Errorf("core: CSO produced invalid plan: %w", err)
	}
	return plan, nil
}

// moveLast returns s with element i moved to the end; i < 0 returns s.
func moveLast[T any](s []T, i int) []T {
	if i < 0 {
		return s
	}
	return slices.Concat(s[:i], s[i+1:], s[i:i+1])
}

// sortCoverSets orders cover sets for evaluation: longest covering
// permutation first (its reorder gives downstream Segmented Sorts the
// longest shared α prefixes), then larger sets, then lower covering ID.
func sortCoverSets(csets []CoverSet) {
	sort.SliceStable(csets, func(i, j int) bool {
		if len(csets[i].Gamma) != len(csets[j].Gamma) {
			return len(csets[i].Gamma) > len(csets[j].Gamma)
		}
		if csets[i].Size() != csets[j].Size() {
			return csets[i].Size() > csets[j].Size()
		}
		return csets[i].Covering.ID < csets[j].Covering.ID
	})
}

// coveringSeqAligned finds a covering permutation of the cover set that
// shares the longest possible literal prefix with y, maximizing the α a
// Segmented Sort can exploit.
func coveringSeqAligned(c WF, members []WF, y attrs.Seq) (attrs.Seq, bool) {
	for k := min(c.PK.Len()+len(c.OK), len(y)); k >= 0; k-- {
		if seq, ok := CoveringSeq(c, members, y[:k]); ok {
			return seq, true
		}
	}
	return nil, false
}

// emitSSCoverSet appends one cover set evaluated via a single Segmented Sort
// on its covering function (Theorem 7), or with no reorder at all when the
// current stream already matches every member.
func emitSSCoverSet(plan *Plan, cs CoverSet, props *Props) error {
	if props.MatchesAll(cs.Members) {
		return plan.appendMatched(cs.Members, *props)
	}
	target, ok := coveringSeqAligned(cs.Covering, cs.Members, props.Y)
	if !ok {
		return fmt.Errorf("core: no covering permutation for cover set led by %s", cs.Covering)
	}
	return plan.appendCoverSet(cs, ReorderSS, props, target, 0)
}

// emitPrefixGroup appends one prefixable subset Pi: its leading cover set is
// reordered with FS or HS (cost-based, Sections 4.5.1–4.5.2), the remaining
// cover sets with SS.
func emitPrefixGroup(plan *Plan, g prefixGroup, props *Props, opt Options) error {
	// Choose the leader: the first cover set (by the same preference order)
	// whose covering permutation admits a non-empty θ prefix — required so
	// the remaining cover sets stay SS-reorderable (footnote 5). With a
	// single cover set any leader works.
	lead := -1
	var leadGamma attrs.Seq
	if !opt.DisableSS {
		for i, cs := range g.csets {
			if gamma, ok := thetaPrefixedGamma(cs, g.theta, len(g.csets) > 1); ok {
				lead, leadGamma = i, gamma
				break
			}
		}
	}
	if lead < 0 {
		// Without Segmented Sort (CSO(v2), the Section 6.2 ablation), or
		// with no cover set that can host the θ prefix, every cover set
		// pays its own FS/HS — the latter FS only (correct, if suboptimal).
		for _, cs := range g.csets {
			gamma, ok := CoveringSeq(cs.Covering, cs.Members, nil)
			if !ok {
				return fmt.Errorf("core: cover set led by %s has no covering permutation", cs.Covering)
			}
			var whk attrs.Set
			if opt.DisableSS {
				whk = ThetaHashPrefix(Theta(cs.Members), cs.Members).Attrs()
			}
			if err := emitHeavy(plan, cs, gamma, whk, props, opt); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emitHeavy(plan, g.csets[lead], leadGamma, g.hash, props, opt); err != nil {
		return err
	}
	for i, cs := range g.csets {
		if i == lead {
			continue
		}
		if err := emitSSCoverSet(plan, cs, props); err != nil {
			return err
		}
	}
	return nil
}

// thetaPrefixedGamma builds the leader's covering permutation γ with the
// longest workable prefix of θ; when required (other cover sets follow) the
// prefix must be non-empty.
func thetaPrefixedGamma(cs CoverSet, theta attrs.Seq, required bool) (attrs.Seq, bool) {
	shortest := 0
	if required {
		shortest = 1
	}
	for k := len(theta); k >= shortest; k-- {
		if gamma, ok := CoveringSeq(cs.Covering, cs.Members, theta[:k]); ok {
			return gamma, true
		}
	}
	return nil, false
}

// emitHeavy appends one cover set reordered with FS or with HS on whk,
// choosing cost-based between them when both apply.
func emitHeavy(plan *Plan, cs CoverSet, gamma attrs.Seq, whk attrs.Set, props *Props, opt Options) error {
	kind := ReorderFS
	if !opt.DisableHS && !whk.Empty() && whk.SubsetOf(cs.Covering.PK) && opt.Cost.HSCost(whk) < opt.Cost.FSCost() {
		kind = ReorderHS
	}
	return plan.appendCoverSet(cs, kind, props, gamma, whk)
}
