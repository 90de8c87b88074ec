package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/attrs"
)

// ReorderKind identifies the tuple-reordering operator feeding one window
// function evaluation.
type ReorderKind uint8

const (
	// ReorderNone: the input already matches the function (Theorem 1).
	ReorderNone ReorderKind = iota
	// ReorderFS: Full Sort — external sort of the whole input.
	ReorderFS
	// ReorderHS: Hashed Sort — hash partition on HashKey, sort buckets.
	ReorderHS
	// ReorderSS: Segmented Sort — sort α-groups within existing segments.
	ReorderSS
)

// String names the reorder kind as in the paper's plan tables.
func (k ReorderKind) String() string {
	switch k {
	case ReorderNone:
		return "—"
	case ReorderFS:
		return "FS"
	case ReorderHS:
		return "HS"
	case ReorderSS:
		return "SS"
	default:
		return fmt.Sprintf("Reorder(%d)", uint8(k))
	}
}

// Step is one link of a window-function chain: an optional reordering
// followed by the evaluation of one window function.
type Step struct {
	WF      WF
	Reorder ReorderKind

	// SortKey is the reorder's target ordering: the full sort key for FS,
	// the per-bucket sort key for HS, and the per-segment target for SS.
	SortKey attrs.Seq
	// HashKey is the HS partitioning key WHK (ReorderHS only).
	HashKey attrs.Set
	// Alpha is the exploited input-order prefix for SS (ReorderSS only);
	// Beta is the per-α-group sort suffix.
	Alpha, Beta attrs.Seq

	// In and Out are the stream properties before and after the step
	// (window evaluation itself preserves properties — Theorem 4).
	In, Out Props
}

// NewStep builds a step — the one place one is built: a reorder of the
// given kind over a stream with property in, followed by the evaluation of
// wf. key is the reorder's target ordering and hash the HS hash key; a kind
// without one ignores it. The step records what its reorder leaves behind
// (Sections 3.1–3.3): FS a stream totally ordered on key; HS one segmented
// on hash and ordered on key inside each segment; SS the input's segments,
// each α-group sorted on β (the split SSDerive takes toward key); no
// reorder, the input as it is. NewStep fails when the reorder does not
// apply — an FS without a key, an HS whose hash key is empty or not within
// WPK (Section 3.2), an SS the input is not SS-reorderable for or that
// would degenerate to a full sort (X = ∅ and α = ε), an unknown kind — and
// when what it leaves does not match wf (Theorem 1).
func NewStep(wf WF, kind ReorderKind, in Props, key attrs.Seq, hash attrs.Set) (Step, error) {
	s, refused := newStep(wf, kind, in, key, hash)
	if refused != "" {
		return Step{}, fmt.Errorf("core: %s for wf%d toward %s (hash key %s) over %s: %s", kind, wf.ID, key, hash, in, refused)
	}
	return s, nil
}

// newStep is NewStep with its refusal as a constant reason, "" for none,
// for callers that only ask whether a step applies (BFO's search tries
// many): it formats no message.
func newStep(wf WF, kind ReorderKind, in Props, key attrs.Seq, hash attrs.Set) (Step, string) {
	s := Step{WF: wf, Reorder: kind, In: in}
	switch kind {
	case ReorderNone:
		s.Out = in
	case ReorderFS:
		if len(key) == 0 && !(wf.PK.Empty() && wf.OK.Empty()) {
			return Step{}, "FS without sort key"
		}
		s.SortKey, s.Out = key, TotallyOrdered(key)
	case ReorderHS:
		if hash.Empty() {
			return Step{}, "HS without hash key"
		}
		if !hash.SubsetOf(wf.PK) {
			return Step{}, "HS hash key ⊄ WPK"
		}
		s.SortKey, s.HashKey, s.Out = key, hash, Props{X: hash, Y: key}
	case ReorderSS:
		if !SSReorderable(in, wf) {
			return Step{}, "SS not applicable"
		}
		s.Alpha, s.Beta = SSDerive(in, key)
		if in.X.Empty() && s.Alpha.Empty() {
			return Step{}, "SS would degenerate to a full sort (X = ∅, α = ε)"
		}
		s.SortKey, s.Out = key, Props{X: in.X, Y: key, Grouped: in.Grouped}
	default:
		return Step{}, "unknown reorder"
	}
	if !s.Out.Matches(wf) {
		return Step{}, "leaves the function unmatched"
	}
	return s, ""
}

// appendMatched appends one reorder-free step per function of ws, over a
// stream with property props that must match them all.
func (p *Plan) appendMatched(ws []WF, props Props) error {
	for _, wf := range ws {
		s, err := NewStep(wf, ReorderNone, props, nil, 0)
		if err != nil {
			return err
		}
		p.Steps = append(p.Steps, s)
	}
	return nil
}

// appendCoverSet appends a cover set (Theorem 7): its covering function
// reordered by kind toward key (hashed on hash for HS), then every other
// member evaluated on what that reorder leaves, which becomes *props.
func (p *Plan) appendCoverSet(cs CoverSet, kind ReorderKind, props *Props, key attrs.Seq, hash attrs.Set) error {
	s, err := NewStep(cs.Covering, kind, *props, key, hash)
	if err != nil {
		return err
	}
	p.Steps = append(p.Steps, s)
	*props = s.Out
	return p.appendMatched(cs.Members[1:], s.Out)
}

// inIDOrder returns a copy of ws in ascending ID (SELECT-clause) order.
func inIDOrder(ws []WF) []WF {
	out := slices.Clone(ws)
	slices.SortStableFunc(out, func(a, b WF) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// longestKeyFirst returns a copy of ws in decreasing key length
// |WPK|+|WOK|, ties by ascending ID.
func longestKeyFirst(ws []WF) []WF {
	out := slices.Clone(ws)
	slices.SortStableFunc(out, func(a, b WF) int {
		return cmp.Or(cmp.Compare(b.PK.Len()+len(b.OK), a.PK.Len()+len(a.OK)), cmp.Compare(a.ID, b.ID))
	})
	return out
}

// without returns a copy of ws without the function of the given ID.
func without(ws []WF, id int) []WF {
	return slices.DeleteFunc(slices.Clone(ws), func(m WF) bool { return m.ID == id })
}

// Plan is a window-function chain (Section 4.1's sequential evaluation
// model) produced by one of the optimization schemes.
type Plan struct {
	Scheme string
	Steps  []Step
}

// String renders the chain in the paper's Table 4/6/8/10 notation, e.g.
// "ws --HS--> wf1 -> wf2 --SS--> wf5".
func (p *Plan) String() string { return p.render(0) }

// PaperString renders the chain with the paper's 1-based function labels
// (wf IDs are 0-based SELECT positions internally), for comparison against
// Tables 4, 6, 8 and 10.
func (p *Plan) PaperString() string { return p.render(1) }

// render renders the chain with each function labelled by its ID + base.
func (p *Plan) render(base int) string {
	b := []byte("ws")
	for _, s := range p.Steps {
		if s.Reorder == ReorderNone {
			b = fmt.Appendf(b, " -> wf%d", s.WF.ID+base)
		} else {
			b = fmt.Appendf(b, " --%s--> wf%d", s.Reorder, s.WF.ID+base)
		}
	}
	return string(b)
}

// ReorderCounts tallies the chain's reorder operators.
func (p *Plan) ReorderCounts() (fs, hs, ss int) {
	for _, s := range p.Steps {
		switch s.Reorder {
		case ReorderFS:
			fs++
		case ReorderHS:
			hs++
		case ReorderSS:
			ss++
		}
	}
	return
}

// Validate replays the physical properties along the chain through NewStep
// and checks that every window function is matched at its evaluation
// point, that every wf appears exactly once and is ws's own, that each
// reorder is known and applicable, and that every step's recorded In, Out
// and SS split are the replay's. This is the machine-checked form of
// Theorems 1, 4 and 7 for a concrete plan, and all a shard node needs to
// trust a coordinator's plan over its own window functions.
func (p *Plan) Validate(ws []WF, in Props) error {
	if len(p.Steps) != len(ws) {
		return fmt.Errorf("core: plan has %d steps for %d window functions", len(p.Steps), len(ws))
	}
	seen := make(map[int]bool, len(ws))
	byID := make(map[int]WF, len(ws))
	for _, wf := range ws {
		byID[wf.ID] = wf
	}
	props := in
	for i, s := range p.Steps {
		wf, ok := byID[s.WF.ID]
		if !ok {
			return fmt.Errorf("core: step %d evaluates unknown wf%d", i, s.WF.ID)
		}
		if seen[wf.ID] {
			return fmt.Errorf("core: wf%d evaluated twice", wf.ID)
		}
		seen[wf.ID] = true
		if s.WF.PK != wf.PK || !s.WF.OK.Equal(wf.OK) {
			return fmt.Errorf("core: step %d evaluates %s, not %s", i, s.WF, wf)
		}
		if !s.In.equal(props) {
			return fmt.Errorf("core: step %d input %s is not the replay's %s", i, s.In, props)
		}
		replay, err := NewStep(wf, s.Reorder, props, s.SortKey, s.HashKey)
		if err != nil {
			return fmt.Errorf("%w (step %d of %s)", err, i, p)
		}
		if s.Reorder == ReorderSS && (!s.Alpha.Equal(replay.Alpha) || !s.Beta.Equal(replay.Beta)) {
			return fmt.Errorf("core: step %d SS split %s|%s is not the replay's %s|%s", i, s.Alpha, s.Beta, replay.Alpha, replay.Beta)
		}
		if !s.Out.equal(replay.Out) {
			return fmt.Errorf("core: step %d output %s is not the replay's %s", i, s.Out, replay.Out)
		}
		props = replay.Out
	}
	return nil
}

// FinalProps replays the chain through NewStep and returns the output
// stream property. A step NewStep refuses, which Validate reports, leaves
// the property as it was.
func (p *Plan) FinalProps(in Props) Props {
	props := in
	for _, s := range p.Steps {
		if replay, refused := newStep(s.WF, s.Reorder, props, s.SortKey, s.HashKey); refused == "" {
			props = replay.Out
		}
	}
	return props
}

// Generators map each scheme of Section 6 to its plan generator, in the
// order the paper's tables list them. order is the statement's final
// ordering, which only CSO aligns its chain toward (Section 5).
var Generators = []struct {
	Scheme string
	Plan   func(ws []WF, in Props, opt Options, order attrs.Seq) (*Plan, error)
}{
	{"BFO", func(ws []WF, in Props, opt Options, _ attrs.Seq) (*Plan, error) { return BFO(ws, in, opt) }},
	{"CSO", CSOAligned},
	{"ORCL", func(ws []WF, in Props, opt Options, _ attrs.Seq) (*Plan, error) { return ORCL(ws, in, opt) }},
	{"PSQL", func(ws []WF, in Props, _ Options, _ attrs.Seq) (*Plan, error) { return PSQL(ws, in) }},
}

// Generate plans ws with the named scheme's generator.
func Generate(scheme string, ws []WF, in Props, opt Options, order attrs.Seq) (*Plan, error) {
	for _, g := range Generators {
		if g.Scheme == scheme {
			return g.Plan(ws, in, opt, order)
		}
	}
	return nil, fmt.Errorf("core: unknown scheme %q", scheme)
}
