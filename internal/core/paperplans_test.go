package core_test

import (
	"testing"

	"repro/internal/attrs"
	"repro/internal/core"
	"repro/internal/paper"
)

// Golden tests for the execution plans of Section 6.2 (Tables 4, 6, 8, 10).
// The cost parameters are this repository's scaled bench configuration:
// an ≈8000-block (64 MB) web_sales with the paper's cardinality ratios, and
// unit reorder memories chosen to land in the same B(R)/M regimes as the
// paper's 50 MB / 75 MB / 150 MB points (HS cheaper below the single-pass
// threshold, FS cheaper at it). Deviations from the published tables are
// deliberate and recorded in DESIGN.md ("Deviations from the published
// plans"); internal/bench/testdata/paper.golden holds every scheme's chain:
// evaluation order among cost-equal cover sets / prefixable groups is a
// degree of freedom the paper itself defers (Section 4.6).
const (
	m50  = 48 // blocks; FS needs a materialized merge pass
	m75  = 56 // blocks; FS still multi-pass
	m150 = 96 // blocks; FS runs fit a single streaming merge
)

// scaledParams mirrors internal/bench's default dataset statistics.
func scaledParams(memBlocks int64) core.CostParams {
	distinct := map[attrs.Set]int64{
		attrs.MakeSet(paper.Item):      850,
		attrs.MakeSet(paper.Bill):      8300,
		attrs.MakeSet(paper.Date):      60,
		attrs.MakeSet(paper.Time):      357,
		attrs.MakeSet(paper.Ship):      60,
		attrs.MakeSet(paper.Warehouse): 16,
		attrs.MakeSet(paper.Quantity):  100,
	}
	return core.CostParams{
		TableBlocks: 8000,
		TableTuples: 300_000,
		MemBlocks:   memBlocks,
		BlockSize:   8192,
		Distinct: func(set attrs.Set) int64 {
			if d, ok := distinct[set]; ok {
				return d
			}
			prod := int64(1)
			for _, id := range set.IDs() {
				if d, ok := distinct[attrs.MakeSet(id)]; ok {
					prod *= d
				} else {
					prod *= 100
				}
				if prod >= 300_000 {
					return 300_000
				}
			}
			return prod
		},
	}
}

func mustCSO(t *testing.T, ws []core.WF, opt core.Options) *core.Plan {
	t.Helper()
	plan, err := core.CSO(ws, core.Unordered(), opt)
	if err != nil {
		t.Fatalf("CSO: %v", err)
	}
	return plan
}

func checkPlan(t *testing.T, name string, plan *core.Plan, want string) {
	t.Helper()
	if got := plan.PaperString(); got != want {
		t.Errorf("%s:\n got  %s\n want %s", name, got, want)
	}
}

func checkCounts(t *testing.T, name string, plan *core.Plan, fs, hs, ss int) {
	t.Helper()
	gfs, ghs, gss := plan.ReorderCounts()
	if gfs != fs || ghs != hs || gss != ss {
		t.Errorf("%s: reorder counts FS=%d HS=%d SS=%d, want FS=%d HS=%d SS=%d (plan %s)",
			name, gfs, ghs, gss, fs, hs, ss, plan.PaperString())
	}
}

// TestQ6Plans reproduces Table 4.
func TestQ6Plans(t *testing.T) {
	ws := paper.WFs(paper.Q6())

	// BFO/CSO: HS at 50/75, FS at 150, SS for wf2 throughout.
	checkPlan(t, "CSO@50", mustCSO(t, ws, core.Options{Cost: scaledParams(m50)}),
		"ws --HS--> wf1 --SS--> wf2")
	checkPlan(t, "CSO@75", mustCSO(t, ws, core.Options{Cost: scaledParams(m75)}),
		"ws --HS--> wf1 --SS--> wf2")
	checkPlan(t, "CSO@150", mustCSO(t, ws, core.Options{Cost: scaledParams(m150)}),
		"ws --FS--> wf1 --SS--> wf2")

	// CSO(v1): HS disabled.
	checkPlan(t, "CSOv1@50", mustCSO(t, ws, core.Options{Cost: scaledParams(m50), DisableHS: true}),
		"ws --FS--> wf1 --SS--> wf2")

	// CSO(v2): SS disabled.
	checkPlan(t, "CSOv2@50", mustCSO(t, ws, core.Options{Cost: scaledParams(m50), DisableSS: true}),
		"ws --HS--> wf1 --HS--> wf2")
	checkPlan(t, "CSOv2@150", mustCSO(t, ws, core.Options{Cost: scaledParams(m150), DisableSS: true}),
		"ws --FS--> wf1 --FS--> wf2")

	// ORCL and PSQL: two full sorts.
	orcl, err := core.ORCL(ws, core.Unordered(), core.Options{Cost: scaledParams(m50)})
	if err != nil {
		t.Fatalf("ORCL: %v", err)
	}
	checkPlan(t, "ORCL", orcl, "ws --FS--> wf1 --FS--> wf2")
	psql, err := core.PSQL(ws, core.Unordered())
	if err != nil {
		t.Fatalf("PSQL: %v", err)
	}
	checkPlan(t, "PSQL", psql, "ws --FS--> wf1 --FS--> wf2")

	// BFO agrees with CSO on Q6 (Table 4's BFO/CSO row).
	bfo, err := core.BFO(ws, core.Unordered(), core.Options{Cost: scaledParams(m50)})
	if err != nil {
		t.Fatalf("BFO: %v", err)
	}
	checkCounts(t, "BFO@50", bfo, 0, 1, 1)
}

// TestQ7Plans reproduces Table 6.
func TestQ7Plans(t *testing.T) {
	ws := paper.WFs(paper.Q7())

	checkPlan(t, "CSO@50", mustCSO(t, ws, core.Options{Cost: scaledParams(m50)}),
		"ws --FS--> wf5 -> wf4 -> wf3 --HS--> wf1 -> wf2")
	checkPlan(t, "CSO@150", mustCSO(t, ws, core.Options{Cost: scaledParams(m150)}),
		"ws --FS--> wf5 -> wf4 -> wf3 --FS--> wf1 -> wf2")

	orcl, err := core.ORCL(ws, core.Unordered(), core.Options{Cost: scaledParams(m50)})
	if err != nil {
		t.Fatalf("ORCL: %v", err)
	}
	checkPlan(t, "ORCL", orcl, "ws --FS--> wf5 -> wf4 -> wf3 --FS--> wf1 -> wf2")

	psql, err := core.PSQL(ws, core.Unordered())
	if err != nil {
		t.Fatalf("PSQL: %v", err)
	}
	checkPlan(t, "PSQL", psql, "ws --FS--> wf1 --FS--> wf2 --FS--> wf3 --FS--> wf4 --FS--> wf5")

	// BFO @50: the symmetric optimum found first in SELECT order
	// (Table 6's BFO row: HS for wf1's group, FS for wf5's).
	bfo, err := core.BFO(ws, core.Unordered(), core.Options{Cost: scaledParams(m50)})
	if err != nil {
		t.Fatalf("BFO: %v", err)
	}
	kinds := reorderByWF(bfo)
	if kinds[0] != core.ReorderHS || kinds[4] != core.ReorderFS {
		t.Errorf("BFO@50: want HS on wf1 and FS on wf5, got %s", bfo.PaperString())
	}
	checkCounts(t, "BFO@50", bfo, 1, 1, 0)
	bfo150, err := core.BFO(ws, core.Unordered(), core.Options{Cost: scaledParams(m150)})
	if err != nil {
		t.Fatalf("BFO@150: %v", err)
	}
	checkCounts(t, "BFO@150", bfo150, 2, 0, 0)
}

// TestQ8Plans reproduces Table 8.
func TestQ8Plans(t *testing.T) {
	ws := paper.WFs(paper.Q8())

	checkPlan(t, "CSO@50", mustCSO(t, ws, core.Options{Cost: scaledParams(m50)}),
		"ws --HS--> wf5 --SS--> wf1 -> wf2 --HS--> wf4 -> wf3")
	checkPlan(t, "CSO@150", mustCSO(t, ws, core.Options{Cost: scaledParams(m150)}),
		"ws --FS--> wf5 --SS--> wf1 -> wf2 --FS--> wf4 -> wf3")

	// ORCL needs three full sorts (it cannot see the SS opportunity);
	// group membership may differ from Oracle's published grouping but the
	// count — what Fig. 7 measures — matches.
	orcl, err := core.ORCL(ws, core.Unordered(), core.Options{Cost: scaledParams(m50)})
	if err != nil {
		t.Fatalf("ORCL: %v", err)
	}
	checkCounts(t, "ORCL", orcl, 3, 0, 0)

	psql, err := core.PSQL(ws, core.Unordered())
	if err != nil {
		t.Fatalf("PSQL: %v", err)
	}
	checkCounts(t, "PSQL", psql, 5, 0, 0)

	bfo, err := core.BFO(ws, core.Unordered(), core.Options{Cost: scaledParams(m50)})
	if err != nil {
		t.Fatalf("BFO: %v", err)
	}
	checkCounts(t, "BFO@50", bfo, 0, 2, 1)
}

// TestQ9Plans reproduces Table 10. The prefixable groups, cover sets and
// reorder-operator multiset match the paper's CSO plan exactly; the
// evaluation order of the (cost-equal) groups is a documented degree of
// freedom, so the chain below lists item's group first where the paper
// lists it last.
func TestQ9Plans(t *testing.T) {
	ws := paper.WFs(paper.Q9())

	checkPlan(t, "CSO@50", mustCSO(t, ws, core.Options{Cost: scaledParams(m50)}),
		"ws --FS--> wf2 -> wf3 --SS--> wf1 --SS--> wf4 --FS--> wf7 -> wf8 --HS--> wf5 --SS--> wf6")
	checkPlan(t, "CSO@150", mustCSO(t, ws, core.Options{Cost: scaledParams(m150)}),
		"ws --FS--> wf2 -> wf3 --SS--> wf1 --SS--> wf4 --FS--> wf7 -> wf8 --FS--> wf5 --SS--> wf6")
	checkCounts(t, "CSO@50", mustCSO(t, ws, core.Options{Cost: scaledParams(m50)}), 2, 1, 3)

	// PSQL avoids exactly one sort (wf3 is matched after wf2's, Section 6.2).
	psql, err := core.PSQL(ws, core.Unordered())
	if err != nil {
		t.Fatalf("PSQL: %v", err)
	}
	checkCounts(t, "PSQL", psql, 7, 0, 0)
	kinds := reorderByWF(psql)
	if kinds[2] != core.ReorderNone {
		t.Errorf("PSQL: wf3 should be matched by wf2's sort, got %s", psql.PaperString())
	}

	// Our ORCL's greedy finds 6 ordering groups (Oracle's own grouping
	// produced 7; ours is a slightly stronger baseline — see DESIGN.md,
	// "Deviations from the published plans", and paper.golden's Q9 rows).
	orcl, err := core.ORCL(ws, core.Unordered(), core.Options{Cost: scaledParams(m50)})
	if err != nil {
		t.Fatalf("ORCL: %v", err)
	}
	checkCounts(t, "ORCL", orcl, 6, 0, 0)

	bfo, err := core.BFO(ws, core.Unordered(), core.Options{Cost: scaledParams(m50)})
	if err != nil {
		t.Fatalf("BFO: %v", err)
	}
	checkCounts(t, "BFO@50", bfo, 2, 1, 3)
	cso := mustCSO(t, ws, core.Options{Cost: scaledParams(m50)})
	p := scaledParams(m50)
	if p.PlanCost(bfo) > p.PlanCost(cso)+1e-9 {
		t.Errorf("BFO cost %.1f exceeds CSO cost %.1f", p.PlanCost(bfo), p.PlanCost(cso))
	}
}

// reorderByWF maps wf ID -> reorder kind.
func reorderByWF(plan *core.Plan) map[int]core.ReorderKind {
	out := make(map[int]core.ReorderKind)
	for _, s := range plan.Steps {
		out[s.WF.ID] = s.Reorder
	}
	return out
}
