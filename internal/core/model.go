// Package core implements the paper's primary contribution: the formal
// machinery of segmented relations and window-function matching
// (Definitions 1–3, Theorems 1–2), cover sets and prefixable sets
// (Definitions 4–5, Theorems 4–8), the FS/HS/SS cost models (Section 3.4),
// and the four plan generators evaluated in Section 6: CSO (the paper's
// cover-set based optimizer), BFO (brute force), ORCL (Oracle 8i ordering
// groups) and PSQL (PostgreSQL's naive scheme).
package core

import (
	"fmt"

	"repro/internal/attrs"
)

// WF is the optimizer's view of a window function: wf = (WPK, WOK) — a set
// of partitioning attributes and a sequence of ordering attributes
// (Section 2). ID identifies the function within its query (its position in
// the SELECT clause).
type WF struct {
	ID int
	PK attrs.Set // WPK
	OK attrs.Seq // WOK

	// PKOrder optionally records the PARTITION BY clause's written attribute
	// order. Only the naive PSQL baseline consults it (PostgreSQL 9.1 sorts
	// on the clause order verbatim, per Section 6); the other schemes choose
	// their own permutations. Empty means "ascending attribute IDs".
	PKOrder attrs.Seq
}

// PKSeqWritten returns the partitioning key as written in the query, or the
// canonical ascending sequence when no written order was recorded.
func (w WF) PKSeqWritten() attrs.Seq {
	if len(w.PKOrder) == w.PK.Len() && w.PKOrder.Attrs() == w.PK {
		return w.PKOrder
	}
	return w.PK.AscSeq()
}

// String renders the function like "wf3(PK={1,2}, OK=(4))".
func (w WF) String() string {
	return fmt.Sprintf("wf%d(PK=%s, OK=%s)", w.ID, w.PK, w.OK)
}

// Props captures the physical property of a tuple stream as a segmented
// relation R_{X,Y} (Definition 1): the stream is a sequence of segments
// whose X values are pairwise disjoint and each of which is sorted on Y.
// Grouped marks the special case R^g_{X,Y} in which every segment contains
// exactly one X-group, which makes the X attributes constant within each
// segment and therefore freely insertable anywhere into the segment's
// effective ordering.
type Props struct {
	X       attrs.Set
	Y       attrs.Seq
	Grouped bool
}

// Unordered is the property of a heap relation: R_{∅,ε}.
func Unordered() Props { return Props{} }

// TotallyOrdered is R_{∅,Y}: one segment sorted on key.
func TotallyOrdered(key attrs.Seq) Props { return Props{Y: key} }

// String renders the property like "R{1},(2,3)" or "Rg{1},(2)".
func (p Props) String() string {
	g := ""
	if p.Grouped {
		g = "g"
	}
	return fmt.Sprintf("R%s%s,%s", g, p.X, p.Y)
}

func (p Props) equal(q Props) bool {
	return p.X == q.X && p.Grouped == q.Grouped && p.Y.Equal(q.Y)
}

// effective normalizes an ordering against the property: for grouped
// streams the X attributes are constant within a segment and are removed
// (dropping a constant attribute anywhere in a lexicographic ordering does
// not change it).
func (p Props) effective(seq attrs.Seq) attrs.Seq {
	if p.Grouped {
		return dropAttrs(seq, p.X)
	}
	return seq
}

// SSDerive computes the α/β split a Segmented Sort to target would use on a
// stream with property p: α is the shared prefix between the (normalized)
// target and the stream's per-segment ordering, β the per-α-group sort key.
func SSDerive(p Props, target attrs.Seq) (alpha, beta attrs.Seq) {
	eff := p.effective(target)
	alpha = eff.LCP(p.effective(p.Y))
	return alpha, eff[len(alpha):]
}

// dropAttrs removes elements whose attribute is in set.
func dropAttrs(seq attrs.Seq, set attrs.Set) attrs.Seq {
	if set.Empty() {
		return seq
	}
	out := make(attrs.Seq, 0, len(seq))
	for _, e := range seq {
		if !set.Contains(e.Attr) {
			out = append(out, e)
		}
	}
	return out
}

// Matches implements Definition 2: R_{X,Y} matches wf iff X ⊆ WPK and there
// is a permutation →WPK with →WPK ∘ WOK ≤ Y (modulo the grouped relaxation).
// By Theorem 1 a matched stream supports evaluating wf with a single
// sequential scan and no reordering. The elements of →WPK may run in any
// direction and put NULLs either side: an ordering groups equal values
// whichever way it runs, so Y's WPK slots are compared by attribute, as
// CoveringSeq fills them.
func (p Props) Matches(wf WF) bool {
	if wf.PK.Empty() && wf.OK.Empty() {
		// Degenerate function: a single window partition (the whole table)
		// with no required internal order is evaluable on any stream.
		return true
	}
	if !p.X.SubsetOf(wf.PK) {
		return false
	}
	pk := wf.PK
	if p.Grouped {
		pk = pk.Minus(p.X)
	}
	y, n := p.effective(p.Y), pk.Len()
	return len(y) >= n && y[:n].Attrs() == pk && y[n:].HasPrefix(p.effective(wf.OK))
}

// MatchesAll reports whether p matches every function in ws (Definition 2's
// set form).
func (p Props) MatchesAll(ws []WF) bool {
	for _, wf := range ws {
		if !p.Matches(wf) {
			return false
		}
	}
	return true
}

// SSReorderable implements Section 3.3's applicability rule: (R_{X,Y}, wf)
// is SS-reorderable iff either (1) X ≠ ∅ and X ⊆ WPK, or (2) X = ∅ and some
// permutation →WPK makes (→WPK ∘ WOK) ∧ Y non-empty — its first element
// being Y's, a WPK slot in any direction (see Matches). Rule (2) is what
// stops SS degenerating into a full sort of the single segment.
func SSReorderable(p Props, wf WF) bool {
	switch {
	case !p.X.Empty():
		return p.X.SubsetOf(wf.PK)
	case len(p.Y) == 0:
		return false
	case !wf.PK.Empty():
		return wf.PK.Contains(p.Y[0].Attr)
	}
	return len(wf.OK) > 0 && wf.OK[0] == p.Y[0]
}

// PlanSS plans the Segmented Sort of a stream with property p that matches
// wf, maximizing |α| as Section 3.3 prescribes (footnote 2: maximizing the
// number of attributes in α minimizes the units to sort). The target is the
// permutation of wf sharing the longest prefix with Y, its WPK slots taking
// Y's elements in any direction, as CSO chooses one. It returns false when
// (p, wf) is not SS-reorderable or the target would degenerate to a full
// sort (NewStep).
func PlanSS(p Props, wf WF) (Step, bool) {
	target, ok := coveringSeqAligned(wf, []WF{wf}, p.Y)
	if !ok {
		return Step{}, false
	}
	s, refused := newStep(wf, ReorderSS, p, target, 0)
	return s, refused == ""
}
