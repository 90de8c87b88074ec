package shard

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/paper"
	"repro/internal/service"
	"repro/internal/trace"
)

// BenchmarkShuffleStage — paper Q9 over 2 in-process nodes, whose stages
// before the last each run their segment, encode the output into one frame
// body per peer, release the chain and deliver the bodies into the peers'
// inboxes; the last stage streams. Besides B/op and allocs/op (-benchmem)
// it reports shipped_B/op, the frame-body bytes the stages shipped.
func BenchmarkShuffleStage(b *testing.B) {
	c, _ := localCluster(b, 2, 10_000, service.Config{})
	ctx := context.Background()
	q := paper.Statements["Q9"]
	if _, err := windowdb.Collect(ctx, c, q); err != nil { // warm the plan caches
		b.Fatal(err)
	}
	var shipped int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := windowdb.Collect(ctx, c, q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Route != "shuffle" {
			b.Fatalf("route %q, want shuffle", res.Route)
		}
		shipped += bytesOut(res.Trace)
	}
	b.ReportMetric(float64(shipped)/float64(b.N), "shipped_B/op")
}

// bytesOut sums the bytes_out of every node span of a query's shuffle
// rounds.
func bytesOut(root *trace.Span) int64 {
	var n int64
	for _, round := range root.Children {
		if !strings.HasPrefix(round.Name, "shuffle round") {
			continue
		}
		for _, node := range round.Children {
			v, _ := strconv.ParseInt(node.Attrs["bytes_out"], 10, 64)
			n += v
		}
	}
	return n
}
