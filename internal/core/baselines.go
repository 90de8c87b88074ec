package core

import (
	"fmt"
	"sort"
)

// ORCL reimplements the Oracle 8i scheme described in Section 6: window
// functions are clustered into a minimum number of Ordering Groups (the
// paper notes these are equivalent to cover sets), and the leading function
// of each group is reordered with a Full Sort — HS and SS do not exist in
// this scheme. Groups whose members are all matched by the current stream
// skip their sort (the standard matched-input optimization).
//
// Our ORCL derives its groups with the same greedy cover-set partitioning
// used by CSO. On some inputs this finds slightly fewer groups than the
// grouping the paper observed from Oracle (e.g. 6 instead of 7 on Q9),
// making ORCL a marginally stronger baseline here; DESIGN.md ("Deviations
// from the published plans") records this, and internal/bench/testdata/
// paper.golden holds the chains.
func ORCL(ws []WF, in Props, opt Options) (*Plan, error) {
	plan := &Plan{Scheme: "ORCL"}
	props := in
	csets := PartitionCoverSets(ws)
	for _, cs := range csets {
		matchedAll := true
		for _, m := range cs.Members {
			if !props.Matches(m) {
				matchedAll = false
				break
			}
		}
		if matchedAll {
			for _, m := range cs.Members {
				plan.Steps = append(plan.Steps, Step{WF: m, Reorder: ReorderNone, In: props, Out: props})
			}
			continue
		}
		gamma := cs.Gamma
		if gamma == nil {
			return nil, fmt.Errorf("core: ORCL cover set led by %s has no covering permutation", cs.Covering)
		}
		out := TotallyOrdered(gamma)
		plan.Steps = append(plan.Steps, Step{WF: cs.Covering, Reorder: ReorderFS, SortKey: gamma, In: props, Out: out})
		props = out
		for _, m := range cs.Members[1:] {
			plan.Steps = append(plan.Steps, Step{WF: m, Reorder: ReorderNone, In: props, Out: props})
		}
	}
	if err := plan.Validate(ws, in); err != nil {
		return nil, fmt.Errorf("core: ORCL produced invalid plan: %w", err)
	}
	return plan, nil
}

// PSQL reimplements PostgreSQL 9.1's naive scheme (Section 6): functions
// are evaluated strictly in SELECT-clause order; each unmatched function is
// preceded by a Full Sort whose key is the PARTITION BY clause order
// verbatim followed by the ORDER BY key. The only optimization is omitting
// the sort when the function is matched by its input — and crucially,
// PostgreSQL's match test is weaker than Definition 2: it only recognizes a
// match when the function's own written key is a literal prefix of the
// current sort order, never considering alternative WPK permutations. That
// weakness is exactly what Section 6.2 demonstrates with Q7, where PSQL
// sorts for wf2 although reordering wf1's key would have covered it.
func PSQL(ws []WF, in Props) (*Plan, error) {
	plan := &Plan{Scheme: "PSQL"}
	props := in
	ordered := append([]WF(nil), ws...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })
	for _, wf := range ordered {
		key := wf.PKSeqWritten().Concat(wf.OK)
		matched := props.X.Empty() && props.Y.HasPrefix(key)
		if wf.PK.Empty() && wf.OK.Empty() {
			matched = true
		}
		if matched {
			plan.Steps = append(plan.Steps, Step{WF: wf, Reorder: ReorderNone, In: props, Out: props})
			continue
		}
		out := TotallyOrdered(key)
		plan.Steps = append(plan.Steps, Step{WF: wf, Reorder: ReorderFS, SortKey: key, In: props, Out: out})
		props = out
	}
	if err := plan.Validate(ws, in); err != nil {
		return nil, fmt.Errorf("core: PSQL produced invalid plan: %w", err)
	}
	return plan, nil
}
