package core

import (
	"fmt"
	"strings"

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

// Plan is a window-function chain (Section 4.1's sequential evaluation
// model) produced by one of the optimization schemes.
type Plan struct {
	Scheme string
	Steps  []Step
}

// String renders the chain in the paper's Table 4/6/8/10 notation, e.g.
// "ws --HS--> wf1 -> wf2 --SS--> wf5".
func (p *Plan) String() string {
	var b strings.Builder
	b.WriteString("ws")
	for _, s := range p.Steps {
		switch s.Reorder {
		case ReorderNone:
			fmt.Fprintf(&b, " -> wf%d", s.WF.ID)
		default:
			fmt.Fprintf(&b, " --%s--> wf%d", s.Reorder, s.WF.ID)
		}
	}
	return b.String()
}

// PaperString renders the chain with the paper's 1-based function labels
// (wf IDs are 0-based SELECT positions internally), for comparison against
// Tables 4, 6, 8 and 10.
func (p *Plan) PaperString() string {
	var b strings.Builder
	b.WriteString("ws")
	for _, s := range p.Steps {
		switch s.Reorder {
		case ReorderNone:
			fmt.Fprintf(&b, " -> wf%d", s.WF.ID+1)
		default:
			fmt.Fprintf(&b, " --%s--> wf%d", s.Reorder, s.WF.ID+1)
		}
	}
	return b.String()
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

// Validate replays the physical properties along the chain and checks that
// every window function is matched at its evaluation point, that every wf
// appears exactly once and is ws's own, that each reorder is known and
// applicable, and that every step's recorded In, Out and SS split are the
// replay's. This is the machine-checked form of Theorems 1, 4 and 7 for a
// concrete plan, and all a shard node needs to trust a coordinator's plan
// over its own window functions.
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
		switch s.Reorder {
		case ReorderNone:
			// no property change
		case ReorderFS:
			if len(s.SortKey) == 0 && !(wf.PK.Empty() && wf.OK.Empty()) {
				return fmt.Errorf("core: step %d FS without sort key", i)
			}
			props = TotallyOrdered(s.SortKey)
		case ReorderHS:
			if s.HashKey.Empty() {
				return fmt.Errorf("core: step %d HS without hash key", i)
			}
			if !s.HashKey.SubsetOf(wf.PK) {
				return fmt.Errorf("core: step %d HS hash key %s ⊄ WPK %s", i, s.HashKey, wf.PK)
			}
			props = Props{X: s.HashKey, Y: s.SortKey}
		case ReorderSS:
			if !SSReorderable(props, wf) {
				return fmt.Errorf("core: step %d SS not applicable on %s for %s", i, props, wf)
			}
			if alpha, beta := SSDerive(props, s.SortKey); !alpha.Equal(s.Alpha) || !beta.Equal(s.Beta) {
				return fmt.Errorf("core: step %d SS split %s|%s is not the replay's %s|%s", i, s.Alpha, s.Beta, alpha, beta)
			}
			props = Props{X: props.X, Y: s.SortKey, Grouped: props.Grouped}
		default:
			return fmt.Errorf("core: step %d has unknown reorder %s", i, s.Reorder)
		}
		if !s.Out.equal(props) {
			return fmt.Errorf("core: step %d output %s is not the replay's %s", i, s.Out, props)
		}
		if !props.Matches(wf) {
			return fmt.Errorf("core: step %d leaves wf%d unmatched by %s (plan %s)", i, wf.ID, props, p)
		}
	}
	return nil
}

// FinalProps replays the chain and returns the output stream property.
func (p *Plan) FinalProps(in Props) Props {
	props := in
	for _, s := range p.Steps {
		switch s.Reorder {
		case ReorderFS:
			props = TotallyOrdered(s.SortKey)
		case ReorderHS:
			props = Props{X: s.HashKey, Y: s.SortKey}
		case ReorderSS:
			props = Props{X: props.X, Y: s.SortKey, Grouped: props.Grouped}
		}
	}
	return props
}
