package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNewID(t *testing.T) {
	a, b := NewID(), NewID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("want 16-hex IDs, got %q, %q", a, b)
	}
	if a == b {
		t.Fatalf("two minted IDs collided: %q", a)
	}
}

func TestContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if got := FromContext(ctx); got != "" {
		t.Fatalf("empty context carried trace ID %q", got)
	}
	ctx = NewContext(ctx, "deadbeefdeadbeef")
	if got := FromContext(ctx); got != "deadbeefdeadbeef" {
		t.Fatalf("FromContext = %q", got)
	}
	if got := IDFromContext(ctx); got != "deadbeefdeadbeef" {
		t.Fatalf("IDFromContext = %q, want the carried ID", got)
	}
	if got := IDFromContext(context.Background()); len(got) != 16 {
		t.Fatalf("IDFromContext on empty context minted %q", got)
	}
}

func TestSpanBuilding(t *testing.T) {
	root := New("query", 40*time.Millisecond).SetAttr("route", "shuffle").SetInt("rows", 120)
	root.Add(New("execute", 30*time.Millisecond))
	root.Add(nil) // nil children are dropped, not stored
	if len(root.Children) != 1 {
		t.Fatalf("children = %d, want 1 (nil Add ignored)", len(root.Children))
	}
	if root.Attrs["route"] != "shuffle" || root.Attrs["rows"] != "120" {
		t.Fatalf("attrs = %v", root.Attrs)
	}
	if root.DurationMillis != 40 {
		t.Fatalf("duration = %v ms, want 40", root.DurationMillis)
	}
}

func TestRenderSortedAttrsAndIndent(t *testing.T) {
	root := New("query", 12*time.Millisecond).SetAttr("zeta", "1").SetAttr("alpha", "2")
	root.Add(New("execute", 10*time.Millisecond).SetInt("rows", 5))
	lines := Render(root)
	want := []string{
		"query 12.000ms [alpha=2 zeta=1]",
		"  execute 10.000ms [rows=5]",
	}
	if len(lines) != len(want) {
		t.Fatalf("Render returned %d lines: %q", len(lines), lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
	if got := Render(nil); got != nil {
		t.Fatalf("Render(nil) = %q, want nil", got)
	}
}

func TestRingFIFOEviction(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Add(&Trace{ID: fmt.Sprintf("id-%d", i)})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	for _, evicted := range []string{"id-0", "id-1"} {
		if r.Get(evicted) != nil {
			t.Fatalf("%s survived eviction", evicted)
		}
	}
	for _, kept := range []string{"id-2", "id-3", "id-4"} {
		if r.Get(kept) == nil {
			t.Fatalf("%s missing after partial wrap", kept)
		}
	}
	recent := r.Recent(2)
	if len(recent) != 2 || recent[0].ID != "id-4" || recent[1].ID != "id-3" {
		t.Fatalf("Recent(2) = %v, want newest first", recent)
	}
}

func TestRingNilSafety(t *testing.T) {
	var r *Ring
	r.Add(&Trace{ID: "x"}) // must not panic
	if r.Get("x") != nil || r.Recent(1) != nil || r.Len() != 0 {
		t.Fatal("nil ring should read as empty")
	}
	NewRing(0).Add(nil) // zero capacity clamps, nil trace ignored
}

// TestRingConcurrent hammers one ring from concurrent writers and readers;
// the -race run of this test is the regression gate for the ring's locking.
func TestRingConcurrent(t *testing.T) {
	r := NewRing(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Add(&Trace{ID: fmt.Sprintf("g%d-%d", g, i), Root: New("query", time.Millisecond)})
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Get(fmt.Sprintf("g%d-%d", g, i))
				r.Recent(4)
				r.Len()
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 8 {
		t.Fatalf("Len = %d after saturation, want 8", r.Len())
	}
}

func TestSlowLogger(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLoggerRate(&buf, 10*time.Millisecond, 0)
	l.Observe(&Trace{ID: "fast", DurationMillis: 5})
	if buf.Len() != 0 {
		t.Fatalf("fast query logged: %s", buf.String())
	}
	l.Observe(&Trace{
		ID: "slow", SQL: "SELECT 1", DurationMillis: 25,
		Root: New("query", 25*time.Millisecond),
	})
	line := strings.TrimSuffix(buf.String(), "\n")
	if strings.Contains(line, "\n") {
		t.Fatalf("entry spans multiple lines: %q", line)
	}
	var entry SlowLogEntry
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("slow-log line is not JSON: %v (%q)", err, line)
	}
	if entry.Kind != "slow_query" || entry.ID != "slow" || entry.ThresholdMs != 10 || entry.Root == nil {
		t.Fatalf("entry = %+v", entry)
	}
}

func TestSlowLoggerDisabled(t *testing.T) {
	if NewSlowLoggerRate(nil, time.Second, 0) != nil {
		t.Fatal("nil writer should disable the logger")
	}
	if NewSlowLoggerRate(&bytes.Buffer{}, 0, 0) != nil {
		t.Fatal("zero threshold should disable the logger")
	}
	var l *SlowLogger
	l.Observe(&Trace{ID: "x", DurationMillis: 1e6}) // must not panic
}

func TestSpanJSONRoundTrip(t *testing.T) {
	root := New("query", 3*time.Millisecond).SetAttr("route", "scatter")
	root.Add(New("node 0", 2*time.Millisecond).SetInt("rows", 7))
	buf, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	var back Span
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "query" || len(back.Children) != 1 || back.Children[0].Attrs["rows"] != "7" {
		t.Fatalf("round trip lost structure: %+v", back)
	}
}

// TestSlowLoggerRateCap: a storm of slow queries within one second writes
// at most maxPerSec lines; the overflow is counted, and the count flushes
// onto the first line of the next window so no suppression goes unseen.
func TestSlowLoggerRateCap(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLoggerRate(&buf, 10*time.Millisecond, 2)
	for i := 0; i < 5; i++ {
		l.Observe(&Trace{ID: fmt.Sprintf("q%d", i), DurationMillis: 50})
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("storm wrote %d lines, want cap of 2: %q", len(lines), buf.String())
	}
	for _, line := range lines {
		var entry SlowLogEntry
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("slow-log line is not JSON: %v (%q)", err, line)
		}
		if entry.Suppressed != 0 {
			t.Fatalf("in-window line reports %d suppressed, want 0: %q", entry.Suppressed, line)
		}
	}

	// Roll the window back instead of sleeping: the next Observe lands in
	// a fresh second and must carry the 3 swallowed lines.
	l.mu.Lock()
	l.windowStart = l.windowStart.Add(-2 * time.Second)
	l.mu.Unlock()
	buf.Reset()
	l.Observe(&Trace{ID: "after", DurationMillis: 50})
	var entry SlowLogEntry
	if err := json.Unmarshal(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), &entry); err != nil {
		t.Fatalf("post-window line is not JSON: %v (%q)", err, buf.String())
	}
	if entry.ID != "after" || entry.Suppressed != 3 {
		t.Fatalf("post-window entry = %+v, want ID=after Suppressed=3", entry)
	}
}

// TestSlowLoggerUncapped: a negative rate removes the storm guard.
func TestSlowLoggerUncapped(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLoggerRate(&buf, 10*time.Millisecond, -1)
	for i := 0; i < 30; i++ {
		l.Observe(&Trace{ID: fmt.Sprintf("q%d", i), DurationMillis: 50})
	}
	if got := strings.Count(buf.String(), "\n"); got != 30 {
		t.Fatalf("uncapped logger wrote %d lines, want 30", got)
	}
}
