package shard

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/service"
)

// TestGeneratedStatements — generated statements over generated tables,
// one of every shape, each sharded on g, through in-process clusters of 1,
// 2 and 4 Local shards: whatever route a statement takes, its result is the
// oracle's, and every node ran the coordinator's plan verbatim — its last
// stage's steps, read off the trace, are res.Plan's, reorder for reorder
// (with scan sharing off, so no node runs a shared scan's suffix instead).
func TestGeneratedStatements(t *testing.T) {
	ctx := context.Background()
	tables := gen.Tables(rand.New(rand.NewSource(1)))
	hit := gen.Hits{}
	for _, shards := range []int{1, 2, 4} {
		c, _ := localCluster(t, shards, 10, service.Config{DisableSharing: true})
		for i, table := range tables {
			if err := c.RegisterSharded(ctx, fmt.Sprintf("t%d", i), table, "g"); err != nil {
				t.Fatal(err)
			}
		}
		for seed := range gen.Seeds(100) {
			rng := rand.New(rand.NewSource(int64(seed)))
			i := rng.Intn(len(tables))
			s := gen.NewStatement(rng, fmt.Sprintf("t%d", i), tables[i].Len())
			projected, err := s.Project(tables[i])
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Query(ctx, s.SQL())
			if err == nil {
				err = s.Check(res.Table.Rows, projected)
			}
			if err != nil {
				t.Fatalf("%d shards, seed %d: %v\n%s", shards, seed, err, s.SQL())
			}
			hit.Windows(s)
			hit[res.Route]++
			if res.Plan == nil {
				continue
			}
			want := lastStageSteps(res.Plan)
			for node, got := range nodeSteps(res.Trace) {
				if !slices.Equal(got, want) {
					t.Fatalf("%d shards, seed %d: node %d ran %v, the coordinator planned %v (%s)\n%s", shards, seed, node, got, want, res.Plan, s.SQL())
				}
			}
			hit["verbatim "+res.Route]++
		}
	}
	hit.Require(t, "scatter", "shuffle", "verbatim scatter", "verbatim shuffle")
}
