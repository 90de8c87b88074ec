package shard

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/service"
	"repro/internal/trace"
)

// TestShuffleTraceAssembly: a key-divergent chain's trace carries the
// coordinator's shuffle rounds with one child span per node, each broken
// into the admission/input/execute/deliver phases the node reported, and
// the assembled tree is retrievable from the coordinator's ring under the
// caller's trace ID.
func TestShuffleTraceAssembly(t *testing.T) {
	c, _ := streamCluster(t, 2, 4000, Config{})
	const id = "feedfacefeedface"
	ctx := trace.NewContext(context.Background(), id)

	res, err := windowdb.Collect(ctx, c, divergeSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Route != "shuffle" {
		t.Fatalf("route %q, want shuffle", res.Route)
	}
	if res.TraceID != id {
		t.Fatalf("result trace ID %q, want caller's %q", res.TraceID, id)
	}
	if res.Trace == nil {
		t.Fatal("shuffle result carries no span tree")
	}
	if res.Trace.Attrs["route"] != "shuffle" {
		t.Fatalf("root attrs %v lack route=shuffle", res.Trace.Attrs)
	}

	var round *trace.Span
	for _, child := range res.Trace.Children {
		if child.Name == "shuffle round 0" {
			round = child
		}
	}
	if round == nil {
		t.Fatalf("no shuffle round span in %v", trace.Render(res.Trace))
	}
	nodes := 0
	for _, n := range round.Children {
		if !strings.HasPrefix(n.Name, "node ") {
			continue
		}
		nodes++
		phases := map[string]bool{}
		for _, p := range n.Children {
			phases[p.Name] = true
		}
		for _, want := range []string{"admission.wait", "input", "execute", "deliver"} {
			if !phases[want] {
				t.Fatalf("node span %s lacks phase %s: %v", n.Name, want, trace.Render(n))
			}
		}
		// Every body carries a header and a trailer, so a node that
		// shipped its rows shipped more bytes than rows.
		rows, _ := strconv.ParseInt(n.Attrs["rows_out"], 10, 64)
		if sent, err := strconv.ParseInt(n.Attrs["bytes_out"], 10, 64); err != nil || sent <= rows {
			t.Fatalf("node span %s: bytes_out %q for %d rows out", n.Name, n.Attrs["bytes_out"], rows)
		}
	}
	if nodes != 2 {
		t.Fatalf("round has %d node spans, want 2", nodes)
	}

	recorded := c.Traces().Get(id)
	if recorded == nil {
		t.Fatal("coordinator ring does not hold the trace")
	}
	if recorded.Error != "" || recorded.Root == nil {
		t.Fatalf("recorded trace %+v, want clean root", recorded)
	}
}

// TestShuffleFailureTraceRecorded: a node failing mid-shuffle still
// produces a trace — the ring entry carries the terminal error and the
// partial round spans gathered before the round collapsed.
func TestShuffleFailureTraceRecorded(t *testing.T) {
	c, sched := faultCluster(t, 3, 2000, service.Config{Slots: 1})
	sched.Store(&schedule{fault: refuse, node: 1})
	ctx := context.Background()
	const id = "0badc0de0badc0de"
	if _, err := windowdb.Collect(trace.NewContext(ctx, id), c, divergeSQL); err == nil {
		t.Fatal("shuffle with a failing node must error")
	}
	recorded := c.Traces().Get(id)
	if recorded == nil {
		t.Fatal("failed shuffle left no trace in the ring")
	}
	if recorded.Error == "" {
		t.Fatalf("recorded trace has no error: %+v", recorded)
	}
	if recorded.Root == nil || recorded.Root.Attrs["error"] == "" {
		t.Fatalf("root span does not mark the failure: %v", trace.Render(recorded.Root))
	}
}

// TestClusterExplainAnalyze: EXPLAIN ANALYZE against the coordinator
// returns the annotated tree as text rows, including the per-node shuffle
// round breakdown.
func TestClusterExplainAnalyze(t *testing.T) {
	c, _ := streamCluster(t, 2, 4000, Config{})
	rows, err := c.QueryContext(context.Background(), "EXPLAIN ANALYZE "+divergeSQL)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var out []string
	for rows.Next() {
		out = append(out, rows.Row()[0].String())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	text := strings.Join(out, "\n")
	for _, want := range []string{"shuffle round 0", "node 0", "node 1", "execute"} {
		if !strings.Contains(text, want) {
			t.Fatalf("EXPLAIN ANALYZE output lacks %q:\n%s", want, text)
		}
	}
}
