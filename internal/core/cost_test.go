package core_test

import (
	"math"
	"testing"

	"repro/internal/attrs"
	"repro/internal/core"
)

func costAt(mem int64) core.CostParams {
	p := scaledParams(mem)
	return p
}

// TestFSCostRegimes — the runtime-mirroring FS model transitions through
// in-memory, single-streaming-merge and multi-pass regimes as M shrinks.
func TestFSCostRegimes(t *testing.T) {
	inMem := costAt(10_000) // M > B: no spill
	if io := inMem.FSCost(); io > 1200 {
		// Only the comparison term remains (300k tuples ≈ 1092 equivalent).
		t.Errorf("in-memory FS cost = %.0f, want comparison-only", io)
	}
	single := costAt(96) // B=8000: runs 42 ≤ F: formation + final merge only
	multi := costAt(48)  // runs 84 > F=47: one materialized pass
	deep := costAt(8)    // deep multi-pass
	if !(single.FSCost() < multi.FSCost() && multi.FSCost() < deep.FSCost()) {
		t.Errorf("FS cost not monotone in memory pressure: %.0f %.0f %.0f",
			single.FSCost(), multi.FSCost(), deep.FSCost())
	}
	// Single-pass ≈ 2B + cmp; multi-pass ≈ 4B + cmp.
	if got := single.FSCost(); got < 16000 || got > 18000 {
		t.Errorf("single-pass FS = %.0f, want ≈ 2B + cmp", got)
	}
	if got := multi.FSCost(); got < 32000 || got > 34100 {
		t.Errorf("one-pass FS = %.0f, want ≈ 4B + cmp", got)
	}
}

// TestHSCostCrossover — the documented FS/HS decision pattern: HS below the
// single-pass threshold, FS at it (what Tables 4–10 rely on).
func TestHSCostCrossover(t *testing.T) {
	item := attrs.MakeSet(3)
	for _, mem := range []int64{48, 56} {
		p := costAt(mem)
		if p.HSCost(item) >= p.FSCost() {
			t.Errorf("M=%d: HS %.0f ≥ FS %.0f (want HS win)", mem, p.HSCost(item), p.FSCost())
		}
	}
	p := costAt(96)
	if p.HSCost(item) <= p.FSCost() {
		t.Errorf("M=96: HS %.0f ≤ FS %.0f (want FS win at single-pass parity)", p.HSCost(item), p.FSCost())
	}
}

// TestSSCostDominates — SS over small α-groups is far cheaper than FS/HS
// (Fig. 4's premise), but not free (per-unit overhead).
func TestSSCostDominates(t *testing.T) {
	p := costAt(48)
	in := core.TotallyOrdered(attrs.AscSeq(6)) // sorted on quantity
	wf := core.WF{ID: 0, PK: attrs.MakeSet(6), OK: attrs.AscSeq(3)}
	step, ok := core.PlanSS(in, wf)
	if !ok {
		t.Fatal("not SS-reorderable")
	}
	ss := p.SSCost(step)
	if ss <= 0 {
		t.Errorf("SS cost should include per-unit overhead, got %.2f", ss)
	}
	// At M=48 blocks each 80-block quantity-unit still spills once, so SS
	// costs ≈ 2B — strictly below FS's ≈ 4B and HS's partition+sort.
	if ss >= p.FSCost() {
		t.Errorf("SS %.0f ≥ FS %.0f", ss, p.FSCost())
	}
	if ss >= p.HSCost(wf.PK) {
		t.Errorf("SS %.0f ≥ HS %.0f", ss, p.HSCost(wf.PK))
	}
	// Once units fit the budget (M = 96 > 80-block units) SS sorts in
	// memory and its cost collapses to the comparison term — the Fig. 4
	// dominance.
	pBig := costAt(96)
	ssBig := pBig.SSCost(step)
	if ssBig*5 > pBig.FSCost() {
		t.Errorf("in-memory SS %.0f not ≪ FS %.0f", ssBig, pBig.FSCost())
	}
}

// TestPaperFormulas — Eq. 1 and Eq. 2 sanity: Eq. 1 grows with shrinking
// memory; Eq. 2's resident-bucket term reduces cost as memory grows.
func TestPaperFormulas(t *testing.T) {
	small, large := costAt(16), costAt(512)
	if small.PaperFSCost() <= large.PaperFSCost() {
		t.Errorf("Eq.1 not decreasing in M: %.0f vs %.0f", small.PaperFSCost(), large.PaperFSCost())
	}
	item := attrs.MakeSet(3)
	if small.PaperHSCost(item) < 0 || large.PaperHSCost(item) < 0 {
		t.Errorf("Eq.2 negative")
	}
	if large.PaperHSCost(item) > small.PaperHSCost(item) {
		t.Errorf("Eq.2 not improving with M: %.0f vs %.0f",
			large.PaperHSCost(item), small.PaperHSCost(item))
	}
}

// TestPlanCostAdds — chain cost is the sum of step costs (the relation size
// assumption of Section 4.2).
func TestPlanCostAdds(t *testing.T) {
	p := costAt(48)
	key := attrs.AscSeq(3, 1)
	plan := &core.Plan{Steps: []core.Step{
		{WF: core.WF{ID: 0, PK: attrs.MakeSet(3), OK: attrs.AscSeq(1)}, Reorder: core.ReorderFS, SortKey: key},
		{WF: core.WF{ID: 1, PK: attrs.MakeSet(3), OK: attrs.AscSeq(1)}, Reorder: core.ReorderNone},
	}}
	if got, want := p.PlanCost(plan), p.FSCost(); got != want {
		t.Errorf("PlanCost = %.2f, want %.2f (None steps are free)", got, want)
	}
}

// TestHSBucketCountPolicy — documented bounds.
func TestHSBucketCountPolicy(t *testing.T) {
	if got := core.HSBucketCount(0, 8000, 48); got != core.MinHSBuckets {
		t.Errorf("unknown distinct: %d, want %d", got, core.MinHSBuckets)
	}
	if got := core.HSBucketCount(4, 8000, 48); got != 4 {
		t.Errorf("distinct-capped: %d", got)
	}
	if got := core.HSBucketCount(1<<30, 1<<30, 4); got != core.MaxHSBuckets {
		t.Errorf("hard cap: %d", got)
	}
}

// TestCostDefaultDistinct — a missing estimator falls back without panic.
func TestCostDefaultDistinct(t *testing.T) {
	p := core.CostParams{TableBlocks: 1000, TableTuples: 10000, MemBlocks: 16, BlockSize: 8192}
	if p.HSCost(attrs.MakeSet(0)) <= 0 {
		t.Errorf("HS cost with default distinct should be positive")
	}
}

// TestStepCmpsIsTheModelsComparisonTerm — StepCmps is the comparison term
// the step's cost already carries: with the table in memory FS costs
// exactly its comparisons, HS its comparisons plus the per-tuple hashing
// work and SS its comparisons plus the per-unit overhead, one sort of
// n·log₂n per bucket or unit, fewer the more sorts there are; a step
// without a reorder makes none.
func TestStepCmpsIsTheModelsComparisonTerm(t *testing.T) {
	p := costAt(10_000) // M > B: no spill I/O in any step
	n := float64(p.TableTuples)
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

	fs := core.Step{Reorder: core.ReorderFS}
	if got, want := p.StepCmps(fs), n*math.Log2(n); !near(got, want) || !near(p.FSCost(), got*core.CmpBlockEquiv) {
		t.Errorf("FS: StepCmps %.0f, want n·log₂n = %.0f; FSCost %.4f", got, want, p.FSCost())
	}
	item := attrs.MakeSet(3)
	hs := core.Step{Reorder: core.ReorderHS, HashKey: item}
	if got := p.StepCmps(hs); got <= 0 || got >= p.StepCmps(fs) || !near(p.HSCost(item), (got+core.HSPerTupleOverhead*n)*core.CmpBlockEquiv) {
		t.Errorf("HS: StepCmps %.0f (FS %.0f), HSCost %.4f", got, p.StepCmps(fs), p.HSCost(item))
	}
	in := core.TotallyOrdered(attrs.AscSeq(6))
	ss, ok := core.PlanSS(in, core.WF{ID: 0, PK: attrs.MakeSet(6), OK: attrs.AscSeq(3)})
	if !ok {
		t.Fatal("not SS-reorderable")
	}
	if got := p.StepCmps(ss); got <= 0 || got >= p.StepCmps(fs) || p.SSCost(ss) <= got*core.CmpBlockEquiv {
		t.Errorf("SS: StepCmps %.0f (FS %.0f), SSCost %.4f", got, p.StepCmps(fs), p.SSCost(ss))
	}
	if got := p.StepCmps(core.Step{Reorder: core.ReorderNone}); got != 0 {
		t.Errorf("no reorder: StepCmps %.0f", got)
	}
}
