package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/attrs"
)

// BFO is the brute-force scheme of Section 6: it searches the space of
// evaluation orders and reordering choices (FS/HS/SS with their candidate
// keys) and returns the cheapest chain under the cost model.
//
// The search is exact over its move set and implemented as memoized dynamic
// programming over (evaluated-set, stream-property) states with one
// dominance rule: a window function matched by the current stream is always
// evaluated immediately (it costs nothing and leaves the property
// unchanged, so deferring it can never help). Candidate reorder keys at
// each step are covering permutations of greedily-maximal jointly-coverable
// subsets of the remaining functions, aligned to the current ordering —
// the keys any optimal chain would use. Ties prefer SELECT-clause order,
// matching the plans reported in the paper's Tables 4–10.
//
// The state space still grows exponentially with the number of window
// functions, which Table 11's optimization-overhead experiment exercises.
func BFO(ws []WF, in Props, opt Options) (*Plan, error) {
	ordered := inIDOrder(ws)
	if len(ordered) > 20 {
		return nil, fmt.Errorf("core: BFO limited to 20 window functions, got %d", len(ordered))
	}
	b := &bfoSearch{ws: ordered, opt: opt, memo: make(map[string]bfoResult)}
	res, ok := b.solve(0, in)
	if !ok {
		return nil, fmt.Errorf("core: BFO found no feasible plan")
	}
	plan := &Plan{Scheme: "BFO", Steps: res.steps}
	if err := plan.Validate(ws, in); err != nil {
		return nil, fmt.Errorf("core: BFO produced invalid plan: %w", err)
	}
	// The paper's BFO enumerates every feasible chain, which subsumes the
	// CSO heuristic's plan by construction. Our search's candidate keys are
	// the covering permutations of greedy cover subsets; CSO's θ(Pi)-prefix
	// construction can occasionally produce a key outside that set, so admit
	// the CSO chain explicitly — BFO must never lose to the heuristic it
	// upper-bounds. Ties keep the searched plan (SELECT-order preference).
	if cso, err := CSO(ws, in, opt); err == nil {
		if opt.Cost.PlanCost(cso) < res.cost-1e-9 {
			return &Plan{Scheme: "BFO", Steps: cso.Steps}, nil
		}
	}
	return plan, nil
}

type bfoResult struct {
	cost  float64
	steps []Step
	ok    bool
}

type bfoSearch struct {
	ws   []WF
	opt  Options
	memo map[string]bfoResult
}

// stateKey encodes a search state: the evaluated set and the stream
// property, each field self-delimiting.
func stateKey(mask uint32, p Props) string {
	b := make([]byte, 0, 16+4*len(p.Y))
	b = binary.AppendUvarint(b, uint64(mask))
	b = binary.AppendUvarint(b, uint64(p.X))
	b = append(b, flags(p.Grouped, false))
	for _, e := range p.Y {
		b = binary.AppendVarint(b, int64(e.Attr))
		b = append(b, flags(e.Desc, e.NullsFirst))
	}
	return string(b)
}

func flags(a, b bool) byte {
	var f byte
	if a {
		f |= 1
	}
	if b {
		f |= 2
	}
	return f
}

func (b *bfoSearch) solve(mask uint32, props Props) (bfoResult, bool) {
	if mask == uint32(1)<<uint(len(b.ws))-1 {
		return bfoResult{ok: true}, true
	}
	key := stateKey(mask, props)
	if r, ok := b.memo[key]; ok {
		return r, r.ok
	}

	// Dominance: evaluate any matched function immediately.
	for i, wf := range b.ws {
		if mask&(1<<uint(i)) != 0 {
			continue
		}
		if s, refused := newStep(wf, ReorderNone, props, nil, 0); refused == "" {
			sub, ok := b.solve(mask|1<<uint(i), props)
			var res bfoResult
			if ok {
				res = bfoResult{cost: sub.cost, steps: append([]Step{s}, sub.steps...), ok: true}
			}
			b.memo[key] = res
			return res, res.ok
		}
	}

	best := bfoResult{}
	consider := func(i int, kind ReorderKind, sortKey attrs.Seq, hash attrs.Set) {
		s, refused := newStep(b.ws[i], kind, props, sortKey, hash)
		if refused != "" {
			return
		}
		sub, ok := b.solve(mask|1<<uint(i), s.Out)
		if !ok {
			return
		}
		cost := b.opt.Cost.StepCost(s) + sub.cost
		if !best.ok || cost < best.cost {
			best = bfoResult{cost: cost, steps: append([]Step{s}, sub.steps...), ok: true}
		}
	}

	for i, wf := range b.ws {
		if mask&(1<<uint(i)) != 0 {
			continue
		}
		subset := b.greedyCoverSubset(mask, wf)
		// Candidate SS reorderings.
		if !b.opt.DisableSS {
			for _, target := range ssTargets(wf, subset, props) {
				consider(i, ReorderSS, target, 0)
			}
		}
		// Candidate FS and HS reorderings.
		for _, gamma := range heavyKeys(wf, subset, props) {
			consider(i, ReorderFS, gamma, 0)
			if b.opt.DisableHS {
				continue
			}
			for _, whk := range hashKeys(wf, subset) {
				consider(i, ReorderHS, gamma, whk)
			}
		}
	}
	b.memo[key] = best
	return best, best.ok
}

// greedyCoverSubset grows the largest jointly-coverable subset of the
// remaining functions with wf as the covering candidate, in ID order.
func (b *bfoSearch) greedyCoverSubset(mask uint32, wf WF) []WF {
	set := []WF{wf}
	for i, m := range b.ws {
		if mask&(1<<uint(i)) != 0 || m.ID == wf.ID {
			continue
		}
		if _, ok := CoveringSeq(wf, append(append([]WF(nil), set...), m), nil); ok {
			set = append(set, m)
		}
	}
	return set
}

// ssTargets proposes SS target keys for wf: its own α-maximizing target and
// the alignment-maximizing covering permutation of its greedy cover subset.
func ssTargets(wf WF, subset []WF, props Props) []attrs.Seq {
	if !SSReorderable(props, wf) {
		return nil
	}
	var out []attrs.Seq
	if s, ok := PlanSS(props, wf); ok {
		out = append(out, s.SortKey)
	}
	if len(subset) > 1 {
		if seq, ok := coveringSeqAligned(wf, subset, props.Y); ok {
			out = appendSeqUnique(out, seq)
		}
	}
	return out
}

// heavyKeys proposes FS/HS sort keys for wf: the covering permutation of its
// greedy cover subset (aligned to the current ordering, and unaligned) and
// its own written key.
func heavyKeys(wf WF, subset []WF, props Props) []attrs.Seq {
	var out []attrs.Seq
	if seq, ok := CoveringSeq(wf, subset, nil); ok {
		out = appendSeqUnique(out, seq)
	}
	if seq, ok := coveringSeqAligned(wf, subset, props.Y); ok {
		out = appendSeqUnique(out, seq)
	}
	return appendSeqUnique(out, wf.PKSeqWritten().Concat(wf.OK))
}

// hashKeys proposes HS hash keys: the intersection of the partitioning keys
// of the greedy cover subset (what keeps followers matched), and wf's own
// full partitioning key.
func hashKeys(wf WF, subset []WF) []attrs.Set {
	var out []attrs.Set
	inter := wf.PK
	for _, m := range subset {
		inter = inter.Intersect(m.PK)
	}
	if !inter.Empty() {
		out = append(out, inter)
	}
	if wf.PK != inter && !wf.PK.Empty() {
		out = append(out, wf.PK)
	}
	return out
}

func appendSeqUnique(seqs []attrs.Seq, s attrs.Seq) []attrs.Seq {
	if s == nil || slices.ContainsFunc(seqs, s.Equal) {
		return seqs
	}
	return append(seqs, s)
}
