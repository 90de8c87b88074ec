package exec

import (
	"slices"
	"testing"

	"repro/internal/attrs"
	"repro/internal/core"
	"repro/internal/storage"
)

// TestChainCommonKey pins the cut the sharded router consumes: a chain runs
// shard-locally when Segments leaves it one segment whose key covers the
// shard key, and otherwise shuffles at Segments' cuts — keyed where the
// keys agree, on ∅ (one site) where none does, and only ever before an FS
// or HS step.
func TestChainCommonKey(t *testing.T) {
	step := func(r core.ReorderKind, pk ...attrs.ID) core.Step {
		return core.Step{WF: core.WF{PK: attrs.MakeSet(pk...)}, Reorder: r}
	}
	none := func(pk ...attrs.ID) core.Step { return step(core.ReorderNone, pk...) }
	fs := func(pk ...attrs.ID) core.Step { return step(core.ReorderFS, pk...) }
	ss := func(pk ...attrs.ID) core.Step { return step(core.ReorderSS, pk...) }
	plan := func(steps ...core.Step) *core.Plan {
		return &core.Plan{Scheme: "manual", Steps: steps}
	}
	seg := func(lo, hi int, key ...attrs.ID) Segment {
		return Segment{Lo: lo, Hi: hi, Key: attrs.MakeSet(key...)}
	}
	cases := []struct {
		name string
		plan *core.Plan
		want []Segment
	}{
		{"empty chain", plan(), nil},
		{"single", plan(fs(1, 2)), []Segment{seg(0, 1, 1, 2)}},
		{"shared subset", plan(fs(1, 2), none(1)), []Segment{seg(0, 2, 1)}},
		{"three-way", plan(fs(1, 2, 3), ss(2, 3), none(3)), []Segment{seg(0, 3, 3)}},
		{"disjoint", plan(fs(1), fs(2)), []Segment{seg(0, 1, 1), seg(1, 2, 2)}},
		{"disjoint, no rebuild", plan(fs(1), ss(2)), []Segment{seg(0, 2)}},
		{"keyless member", plan(fs(1), fs()), []Segment{seg(0, 1, 1), seg(1, 2)}},
		{"keyless mid-chain", plan(fs(1), fs(), fs(2)), []Segment{seg(0, 1, 1), seg(1, 2), seg(2, 3, 2)}},
		{"keyless lead", plan(fs(), fs(1), none(1)), []Segment{seg(0, 1), seg(1, 3, 1)}},
	}
	for _, tc := range cases {
		if got := Segments(tc.plan); !slices.Equal(got, tc.want) {
			t.Errorf("%s: Segments = %+v, want %+v", tc.name, got, tc.want)
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
	// By position, the parts are the same rows in the same order.
	for p, pos := range PartitionPositions(rows, ids, 4) {
		if len(pos) != len(a[p]) {
			t.Fatalf("part %d: %d positions, %d rows", p, len(pos), len(a[p]))
		}
		for k, i := range pos {
			if &rows[i][0] != &a[p][k][0] {
				t.Fatalf("part %d row %d is input row %d, not the row PartitionRows placed there", p, k, i)
			}
		}
	}
}
