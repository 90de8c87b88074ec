package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/attrs"
	"repro/internal/core"
)

// randWF draws a random window function over nattrs attributes (ascending
// keys only, as in the paper's model).
func randWF(rng *rand.Rand, id, nattrs int) core.WF {
	var pk attrs.Set
	npk := rng.Intn(3)
	for len(pk.IDs()) < npk {
		pk = pk.Add(attrs.ID(rng.Intn(nattrs)))
	}
	var ok attrs.Seq
	var used attrs.Set
	nok := rng.Intn(3)
	for len(ok) < nok {
		a := attrs.ID(rng.Intn(nattrs))
		if pk.Contains(a) || used.Contains(a) {
			break
		}
		used = used.Add(a)
		ok = append(ok, attrs.Asc(a))
	}
	return core.WF{ID: id, PK: pk, OK: ok}
}

// randProps draws a random physical property.
func randProps(rng *rand.Rand, nattrs int) core.Props {
	var p core.Props
	switch rng.Intn(3) {
	case 0: // unordered or totally ordered
		n := rng.Intn(nattrs)
		var used attrs.Set
		for i := 0; i < n; i++ {
			a := attrs.ID(rng.Intn(nattrs))
			if used.Contains(a) {
				continue
			}
			used = used.Add(a)
			p.Y = append(p.Y, attrs.Asc(a))
		}
	case 1: // segmented
		p.X = p.X.Add(attrs.ID(rng.Intn(nattrs)))
		if rng.Intn(2) == 0 {
			p.X = p.X.Add(attrs.ID(rng.Intn(nattrs)))
		}
		var used attrs.Set
		for i := 0; i < rng.Intn(3); i++ {
			a := attrs.ID(rng.Intn(nattrs))
			if used.Contains(a) {
				continue
			}
			used = used.Add(a)
			p.Y = append(p.Y, attrs.Asc(a))
		}
	default: // grouped
		p.X = p.X.Add(attrs.ID(rng.Intn(nattrs)))
		p.Grouped = true
		var used attrs.Set
		used = p.X
		for i := 0; i < rng.Intn(3); i++ {
			a := attrs.ID(rng.Intn(nattrs))
			if used.Contains(a) {
				continue
			}
			used = used.Add(a)
			p.Y = append(p.Y, attrs.Asc(a))
		}
	}
	return p
}

// bruteCovers enumerates all permutations of both partitioning keys to
// decide pairwise coverage, the ground truth for Covers.
func bruteCovers(c, m core.WF) bool {
	found := false
	perms := func(s attrs.Set) []attrs.Seq {
		var out []attrs.Seq
		if s.Empty() {
			return []attrs.Seq{{}}
		}
		s.Permutations(func(seq attrs.Seq) bool {
			out = append(out, seq.Clone())
			return true
		})
		return out
	}
	for _, pc := range perms(c.PK) {
		gamma := pc.Concat(c.OK)
		for _, pm := range perms(m.PK) {
			if gamma.HasPrefix(pm.Concat(m.OK)) {
				found = true
			}
		}
	}
	return found
}

// TestCoversBruteForce cross-validates Covers against permutation
// enumeration on random pairs.
func TestCoversBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		c := randWF(rng, 0, 4)
		m := randWF(rng, 1, 4)
		got := core.Covers(c, m)
		want := bruteCovers(c, m)
		if got != want {
			t.Fatalf("Covers(%s, %s) = %v, brute force = %v", c, m, got, want)
		}
	}
}

// TestCoveringSeqValid checks every constructed covering permutation is a
// genuine one: each member has a permutation prefixing it.
func TestCoveringSeqValid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		n := 2 + rng.Intn(3)
		ws := make([]core.WF, n)
		for j := range ws {
			ws[j] = randWF(rng, j, 4)
		}
		c := ws[rng.Intn(n)]
		gamma, ok := core.CoveringSeq(c, ws, nil)
		if !ok {
			continue
		}
		// γ must itself be a permutation of PKc followed by OKc.
		if !gamma[:c.PK.Len()].Attrs().SubsetOf(c.PK) || !gamma[c.PK.Len():].Equal(c.OK) {
			t.Fatalf("γ %s is not →WPK∘WOK of %s", gamma, c)
		}
		for _, m := range ws {
			if !coveredBy(m, gamma) {
				t.Fatalf("γ %s of %s does not cover %s", gamma, c, m)
			}
		}
	}
}

// coveredBy checks ∃ perm: →WPKm ∘ WOKm ≤ gamma by direct construction.
func coveredBy(m core.WF, gamma attrs.Seq) bool {
	pm := m.PK.Len()
	if pm+len(m.OK) > len(gamma) {
		return false
	}
	if gamma[:pm].Attrs() != m.PK {
		return false
	}
	for k, e := range m.OK {
		if gamma[pm+k] != e {
			return false
		}
	}
	return true
}

// TestTheorem5 — if a relation matches a set of window functions, the set is
// a cover set.
func TestTheorem5(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	checked := 0
	for i := 0; i < 100000 && checked < 300; i++ {
		p := randProps(rng, 4)
		n := 2 + rng.Intn(3)
		ws := make([]core.WF, n)
		for j := range ws {
			ws[j] = randWF(rng, j, 4)
		}
		// Exclude degenerate functions, which Matches admits by evaluator
		// semantics rather than Definition 2.
		degenerate := false
		for _, wf := range ws {
			if wf.PK.Empty() && wf.OK.Empty() {
				degenerate = true
			}
		}
		if degenerate || !p.MatchesAll(ws) {
			continue
		}
		checked++
		if !core.IsCoverSet(ws) {
			t.Fatalf("props %s matches %v but the set is not a cover set", p, ws)
		}
	}
	if checked < 30 {
		t.Fatalf("too few matched samples (%d); generator drifted", checked)
	}
}

// TestTheorem2Planner — SS-reorderability is preserved by SS reordering at
// the property level: after reordering R with SS wrt wf1, (R', wf2) is
// SS-reorderable iff (R, wf2) was.
func TestTheorem2Planner(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	checked := 0
	for i := 0; i < 20000 && checked < 500; i++ {
		p := randProps(rng, 4)
		wf1 := randWF(rng, 0, 4)
		wf2 := randWF(rng, 1, 4)
		step, ok := core.PlanSS(p, wf1)
		if !ok {
			continue
		}
		checked++
		before := core.SSReorderable(p, wf2)
		after := core.SSReorderable(step.Out, wf2)
		if before != after {
			t.Fatalf("SS-reorderability not preserved: %s --SS(wf1=%s)--> %s; wf2=%s before=%v after=%v",
				p, wf1, step.Out, wf2, before, after)
		}
	}
	if checked < 100 {
		t.Fatalf("too few SS-reorderable samples (%d)", checked)
	}
}

// TestPlanSSOutMatches — PlanSS plans exactly the SS-reorderable pairs, and
// the SS target property must match the function.
func TestPlanSSOutMatches(t *testing.T) {
	// A WPK slot takes Y's element in either direction.
	desc, pk := core.TotallyOrdered(attrs.Seq{{Attr: 0, Desc: true}}), attrs.Set(0).Add(0).Add(1)
	if step, ok := core.PlanSS(desc, core.WF{PK: pk}); !ok || len(step.Alpha) != 1 {
		t.Fatalf("PlanSS(%s, PK=%s) = %+v, %v; want α = (0 DESC)", desc, pk, step, ok)
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 5000; i++ {
		p := randProps(rng, 4)
		wf := randWF(rng, 0, 4)
		step, ok := core.PlanSS(p, wf)
		if ok != core.SSReorderable(p, wf) {
			t.Fatalf("PlanSS(%s, %s) plans %v, SSReorderable says %v", p, wf, ok, !ok)
		}
		if !ok {
			continue
		}
		if !step.Out.Matches(wf) {
			t.Fatalf("PlanSS(%s, %s) output %s does not match", p, wf, step.Out)
		}
		if p.X.Empty() && step.Alpha.Empty() {
			t.Fatalf("PlanSS(%s, %s) degenerated to a full sort", p, wf)
		}
	}
}

// TestPartitionCoverSetsValid — every partition element is a genuine,
// disjoint cover set covering all input functions.
func TestPartitionCoverSetsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(8)
		ws := make([]core.WF, n)
		for j := range ws {
			ws[j] = randWF(rng, j, 4)
		}
		seen := map[int]bool{}
		for _, cs := range core.PartitionCoverSets(ws) {
			if !core.IsCoverSet(cs.Members) {
				t.Fatalf("partition element %v is not a cover set", cs.Members)
			}
			if cs.Members[0].ID != cs.Covering.ID {
				t.Fatalf("covering function %v is not evaluated first in %v", cs.Covering, cs.Members)
			}
			for _, m := range cs.Members {
				if seen[m.ID] {
					t.Fatalf("wf%d appears in two cover sets", m.ID)
				}
				seen[m.ID] = true
			}
		}
		if len(seen) != n {
			t.Fatalf("partition covers %d of %d functions", len(seen), n)
		}
	}
}

// TestPartitionPrefixableValid — groups are prefixable and exhaustive.
func TestPartitionPrefixableValid(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(8)
		ws := make([]core.WF, 0, n)
		for j := 0; j < n; j++ {
			wf := randWF(rng, j, 4)
			if wf.PK.Empty() && wf.OK.Empty() {
				continue // degenerate functions never reach C2
			}
			ws = append(ws, wf)
		}
		if len(ws) == 0 {
			continue
		}
		groups := core.PartitionPrefixable(ws)
		seen := map[int]bool{}
		for _, g := range groups {
			if !core.Prefixable(g.Members) {
				t.Fatalf("group %v (first %s) is not prefixable", g.Members, g.First)
			}
			for _, m := range g.Members {
				if seen[m.ID] {
					t.Fatalf("wf%d in two prefixable groups", m.ID)
				}
				seen[m.ID] = true
			}
		}
		if len(seen) != len(ws) {
			t.Fatalf("prefixable partition covers %d of %d", len(seen), len(ws))
		}
	}
}

// TestThetaIsCommonPrefix — θ(W) must be consumable by every member, and
// must be non-empty exactly when the set is prefixable.
func TestThetaIsCommonPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 1000; i++ {
		n := 1 + rng.Intn(4)
		ws := make([]core.WF, n)
		nonDegenerate := true
		for j := range ws {
			ws[j] = randWF(rng, j, 4)
			if ws[j].PK.Empty() && len(ws[j].OK) == 0 {
				nonDegenerate = false
			}
		}
		if !nonDegenerate {
			continue
		}
		theta := core.Theta(ws)
		// Every member must accept θ as a key prefix: verify by replaying
		// the consume discipline.
		for _, wf := range ws {
			rem := wf.PK
			okPos := 0
			for _, e := range theta {
				if !rem.Empty() {
					if !rem.Contains(e.Attr) {
						t.Fatalf("θ %s not consumable by %s", theta, wf)
					}
					rem = rem.Remove(e.Attr)
					continue
				}
				if okPos >= len(wf.OK) || wf.OK[okPos] != e {
					t.Fatalf("θ %s not consumable by %s", theta, wf)
				}
				okPos++
			}
		}
		// Prefixable ⟺ some shared first element exists.
		shared := map[attrs.Elem]int{}
		for _, wf := range ws {
			for _, e := range core.FirstElems(wf) {
				shared[e]++
			}
			// Partitioning attributes also accept directed elements.
		}
		if core.Prefixable(ws) != (len(theta) > 0) {
			t.Fatalf("Prefixable=%v but |θ|=%d for %v", core.Prefixable(ws), len(theta), ws)
		}
	}
}

// TestPlansValidateAcrossSchemes — every scheme yields a valid plan on
// random inputs and random starting properties.
func TestPlansValidateAcrossSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	opt := core.Options{Cost: scaledParams(m50)}
	for i := 0; i < 400; i++ {
		n := 1 + rng.Intn(6)
		ws := make([]core.WF, n)
		for j := range ws {
			ws[j] = randWF(rng, j, 4)
		}
		props := randProps(rng, 4)
		if cso, err := core.CSO(ws, props, opt); err != nil {
			t.Fatalf("CSO(%v, %s): %v", ws, props, err)
		} else if err := cso.Validate(ws, props); err != nil {
			t.Fatalf("CSO invalid: %v", err)
		}
		if orcl, err := core.ORCL(ws, props, opt); err != nil {
			t.Fatalf("ORCL(%v, %s): %v", ws, props, err)
		} else if err := orcl.Validate(ws, props); err != nil {
			t.Fatalf("ORCL invalid: %v", err)
		}
		if psql, err := core.PSQL(ws, props); err != nil {
			t.Fatalf("PSQL(%v, %s): %v", ws, props, err)
		} else if err := psql.Validate(ws, props); err != nil {
			t.Fatalf("PSQL invalid: %v", err)
		}
		if n <= 5 {
			bfo, err := core.BFO(ws, props, opt)
			if err != nil {
				t.Fatalf("BFO(%v, %s): %v", ws, props, err)
			}
			if err := bfo.Validate(ws, props); err != nil {
				t.Fatalf("BFO invalid: %v", err)
			}
			// BFO is exact over a superset of CSO's moves: never worse.
			cso, _ := core.CSO(ws, props, opt)
			if opt.Cost.PlanCost(bfo) > opt.Cost.PlanCost(cso)+1e-6 {
				t.Fatalf("BFO cost %.2f > CSO cost %.2f\nBFO:  %s\nCSO:  %s",
					opt.Cost.PlanCost(bfo), opt.Cost.PlanCost(cso), bfo, cso)
			}
		}
	}
}
