package exec

import (
	"testing"

	"repro/internal/attrs"
	"repro/internal/core"
	"repro/internal/storage"
)

// TestChainCommonKey pins the whole-chain partition-key analysis the
// sharded router consumes.
func TestChainCommonKey(t *testing.T) {
	step := func(pk ...attrs.ID) core.Step {
		return core.Step{WF: core.WF{PK: attrs.MakeSet(pk...)}}
	}
	plan := func(steps ...core.Step) *core.Plan {
		return &core.Plan{Scheme: "manual", Steps: steps}
	}
	cases := []struct {
		name string
		plan *core.Plan
		want attrs.Set
	}{
		{"nil plan", nil, 0},
		{"empty chain", plan(), 0},
		{"single", plan(step(1, 2)), attrs.MakeSet(1, 2)},
		{"shared subset", plan(step(1, 2), step(1)), attrs.MakeSet(1)},
		{"disjoint", plan(step(1), step(2)), 0},
		{"empty member", plan(step(1), step()), 0},
		{"three-way", plan(step(1, 2, 3), step(2, 3), step(3)), attrs.MakeSet(3)},
	}
	for _, tc := range cases {
		if got := ChainCommonKey(tc.plan); got != tc.want {
			t.Errorf("%s: ChainCommonKey = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestPartitionRowsMatchesInternal: the exported partitioner buckets by the
// executors' own placement hash and loses no row.
func TestPartitionRowsMatchesInternal(t *testing.T) {
	rows := make([]storage.Tuple, 100)
	for i := range rows {
		rows[i] = storage.Tuple{storage.Int(int64(i % 17)), storage.Int(int64(i))}
	}
	ids := []attrs.ID{0}
	a := PartitionRows(rows, ids, 4)
	if len(a) != 4 {
		t.Fatalf("%d buckets, want 4", len(a))
	}
	total := 0
	for i := range a {
		for _, r := range a[i] {
			if int(hashTupleKey(r, ids)%4) != i {
				t.Fatalf("row %s landed in bucket %d, its hash says otherwise", r, i)
			}
		}
		total += len(a[i])
	}
	if total != len(rows) {
		t.Fatalf("partitioning lost rows: %d of %d", total, len(rows))
	}
}
