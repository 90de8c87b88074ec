package core

import (
	"testing"

	"repro/internal/attrs"
)

func testCost() CostParams {
	return CostParams{TableBlocks: 2000, TableTuples: 100000, MemBlocks: 64, BlockSize: 8192}
}

func wf(id int, pk []attrs.ID, ok ...attrs.ID) WF {
	seq := make(attrs.Seq, len(ok))
	for i, a := range ok {
		seq[i] = attrs.Asc(a)
	}
	return WF{ID: id, PK: attrs.MakeSet(pk...), OK: seq}
}

func TestFactorLattice(t *testing.T) {
	fine := wf(0, []attrs.ID{1}, 2, 3)  // PARTITION BY 1 ORDER BY 2,3
	mid := wf(1, []attrs.ID{1}, 2)      // same PK, coarser grain
	whole := wf(2, []attrs.ID{1})       // whole-partition aggregate
	other := wf(3, []attrs.ID{4}, 2)    // unrelated partition key
	finer := wf(4, []attrs.ID{1}, 2, 5) // divergent grain

	cases := []struct {
		name string
		a, b WF
		want bool
	}{
		{"coarser grain factors through finer", mid, fine, true},
		{"whole partition factors through any grain", whole, fine, true},
		{"self edge", fine, fine, true},
		{"finer does not factor through coarser", fine, mid, false},
		{"divergent grains unrelated", finer, fine, false},
		{"different partition key unrelated", other, fine, false},
	}
	for _, c := range cases {
		gamma, ok := CoveringSeq(c.b, []WF{c.a}, nil)
		if ok != c.want {
			t.Errorf("%s: %s covering %s = %v, want %v", c.name, c.b, c.a, ok, c.want)
			continue
		}
		if !ok {
			continue
		}
		// The returned γ must serve both: a stream totally ordered on γ
		// matches a and b (Theorem 1 via Definition 2).
		p := TotallyOrdered(gamma)
		if !p.Matches(c.a) || !p.Matches(c.b) {
			t.Errorf("%s: γ=%s does not match both (a=%v b=%v)", c.name, gamma, p.Matches(c.a), p.Matches(c.b))
		}
	}
}

func TestDeriveSuffix(t *testing.T) {
	fine := wf(0, []attrs.ID{1}, 2, 3)
	mid := wf(1, []attrs.ID{1}, 2)
	ws := []WF{mid}
	plan, err := CSO(ws, Unordered(), Options{})
	if err != nil {
		t.Fatal(err)
	}

	// A segment reordered for the finer function covers the coarser chain.
	gamma, ok := CoveringSeq(fine, []WF{mid}, nil)
	if !ok {
		t.Fatalf("%s should cover %s", fine, mid)
	}
	seg := TotallyOrdered(gamma)
	suffix, ok := DeriveSuffix(plan, seg)
	if !ok {
		t.Fatalf("DeriveSuffix over %s failed", seg)
	}
	for i, s := range suffix.Steps {
		if s.Reorder != ReorderNone {
			t.Errorf("suffix step %d has reorder %s, want none", i, s.Reorder)
		}
	}
	if err := suffix.Validate(ws, seg); err != nil {
		t.Errorf("suffix plan invalid: %v", err)
	}

	// A segment that is too coarse must be rejected.
	fws := []WF{fine}
	fplan, err := CSO(fws, Unordered(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	coarse := TotallyOrdered(attrs.Seq{attrs.Asc(1), attrs.Asc(2)})
	if _, ok := DeriveSuffix(fplan, coarse); ok {
		t.Errorf("DeriveSuffix accepted a segment too coarse for %s", fine)
	}
}

func TestLatticeNode(t *testing.T) {
	fine := wf(0, []attrs.ID{1}, 2, 3)
	plan, err := CSO([]WF{fine}, Unordered(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	node := LatticeNode(plan)
	if node == "" {
		t.Fatalf("heavy-led chain %s has empty lattice node", plan)
	}
	// Same statement → same node; a different grain → a different node.
	plan2, err := CSO([]WF{fine}, Unordered(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := LatticeNode(plan2); got != node {
		t.Errorf("same chain, different nodes: %q vs %q", got, node)
	}
	mid := wf(0, []attrs.ID{1}, 2)
	plan3, err := CSO([]WF{mid}, Unordered(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := LatticeNode(plan3); got == node {
		t.Errorf("different grains share lattice node %q", got)
	}
	if got := LatticeNode(nil); got != "" {
		t.Errorf("LatticeNode(nil) = %q, want empty", got)
	}
}
