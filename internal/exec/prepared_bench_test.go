package exec_test

import (
	"context"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/sql"
)

// BenchmarkRunChainPrepared is BenchmarkRunChain's sibling on the lean
// side of the materializing wrapper: the same two rank functions over the
// same table, planned and executed through sql.Prepared and drained
// through its cursor, which projects straight from the executor's rows
// and tail vectors. `go test -bench RunChain -benchmem ./internal/exec`
// shows both.
func BenchmarkRunChainPrepared(b *testing.B) {
	cat := catalog.New()
	cat.Register("t", exec.BenchTable())
	r := &sql.Runner{Catalog: cat, Exec: exec.Config{MemoryBytes: 64 << 20}}
	p, err := r.Prepare(`SELECT rank() OVER (PARTITION BY a ORDER BY b) AS r1, rank() OVER (PARTITION BY a ORDER BY c) AS r2 FROM t`)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur, err := p.Open(ctx, sql.Input{}, false)
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := cur.NextBatch(); err != nil {
				break
			}
		}
		cur.Close() // the chain's arrays go back to the pool, as every consumer's do
	}
}
