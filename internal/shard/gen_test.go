package shard

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
)

// TestGeneratedStatements — generated statements over generated tables,
// one of every shape, each sharded on g, through in-process clusters of 1,
// 2 and 4 Local shards: whatever route a statement takes, its result is the
// oracle's.
func TestGeneratedStatements(t *testing.T) {
	ctx := context.Background()
	tables := gen.Tables(rand.New(rand.NewSource(1)))
	hit := gen.Hits{}
	for _, shards := range []int{1, 2, 4} {
		c := newLocalCluster(t, shards, 10)
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
		}
	}
	hit.Require(t, "scatter", "shuffle")
}
