package shard

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro"
	"repro/internal/gen"
	"repro/internal/service"
	"repro/internal/storage"
)

// TestGeneratedStatements — generated statements over generated tables,
// one of every shape, each sharded on g, through in-process clusters of 1,
// 2 and 4 Local shards. Each statement runs twice. First whole and
// unfaulted: whatever route it takes, its result is the oracle's, and every
// node ran the coordinator's plan verbatim — its last stage's steps, read
// off the trace, are res.Plan's, reorder for reorder (with scan sharing
// off, so no node runs a shared scan's suffix instead). Then under one
// seeded fault schedule (fault_test.go), half the time cut to its chain
// (gen.Statement.Chain), which streams through the coordinator's merge of
// the node streams instead of a finalize over their drained concatenation:
// it ends with the oracle's rows or as the fault says. After either run,
// once its end has returned, the cluster holds nothing for it, and the
// process no goroutine or spill block more than before it.
func TestGeneratedStatements(t *testing.T) {
	ctx := context.Background()
	tables := gen.Tables(rand.New(rand.NewSource(1)))
	hit := gen.Hits{}
	for _, shards := range []int{1, 2, 4} {
		c, sched := faultCluster(t, shards, 0, service.Config{DisableSharing: true})
		for i, table := range tables {
			if err := c.RegisterSharded(ctx, fmt.Sprintf("t%d", i), table, "g"); err != nil {
				t.Fatal(err)
			}
		}
		base := takeBaseline()
		for seed := range gen.Seeds(100) {
			rng := rand.New(rand.NewSource(int64(seed)))
			i := rng.Intn(len(tables))
			s := gen.NewStatement(rng, fmt.Sprintf("t%d", i), tables[i].Len())
			projected, err := s.Project(tables[i])
			if err != nil {
				t.Fatal(err)
			}
			res, err := windowdb.Collect(ctx, c, s.SQL())
			if err == nil {
				err = s.Check(res.Table.Rows, projected)
			}
			if err == nil {
				err = released(c, base)
			}
			if err != nil {
				t.Fatalf("%d shards, seed %d: %v\n%s", shards, seed, err, s.SQL())
			}
			hit.Windows(s)
			hit[res.Route]++
			if res.Plan != nil {
				want := lastStageSteps(res.Plan)
				for node, got := range nodeSteps(res.Trace) {
					if !slices.Equal(got, want) {
						t.Fatalf("%d shards, seed %d: node %d ran %v, the coordinator planned %v (%s)\n%s", shards, seed, node, got, want, res.Plan, s.SQL())
					}
				}
				hit["verbatim "+res.Route]++
			}

			faulted := s
			if rng.Intn(2) == 0 {
				faulted = s.Chain()
				if projected, err = faulted.Project(tables[i]); err != nil {
					t.Fatal(err)
				}
			}
			sc := newSchedule(rng, shards, len(faulted.Finalize(projected)))
			e := play(c, sched, sc, faulted.SQL())
			err = sc.check(e, func(rows []storage.Tuple) error { return faulted.Check(rows, projected) })
			if err == nil {
				err = released(c, base)
			}
			if err != nil {
				t.Fatalf("%d shards, seed %d, %s: %v\n%s", shards, seed, sc, err, faulted.SQL())
			}
			hit[e.counted.String()]++
			if sc.fired.Load() {
				hit[sc.fault.String()]++
			}
		}
	}
	paths := []string{"scatter", "shuffle", "verbatim scatter", "verbatim shuffle", "served", "aborted", "failed"}
	for f := noFault + 1; f < faults; f++ {
		paths = append(paths, f.String())
	}
	hit.Require(t, paths...)
}
