package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/trace"
)

// span is one timed call from the harness into the program. Spans are
// recorded around calls into exported functions only; nothing inside the
// packages is instrumented. Parent names the rung the call sits beneath in
// the ladder: lower rungs are separate replays of the same work, so a
// child's interval follows its parent's rather than nesting inside it.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Stmt    string `json:"stmt,omitempty"`
	Replay  int    `json:"replay"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	// Public is the span tree the backend already publishes for the call
	// (QueryMetrics.Trace), attached unchanged.
	Public *trace.Span `json:"public,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished call.
func (t *tracer) add(name, parent, stmt string, replay int, start time.Time, ms float64, public *trace.Span) {
	s := start.Sub(t.t0).Microseconds()
	t.spans = append(t.spans, span{
		Name: name, Parent: parent, Stmt: stmt, Replay: replay,
		StartUS: s, EndUS: s + int64(ms*1000), Public: public,
	})
}

// timed runs f as one span and returns its duration in milliseconds.
func (t *tracer) timed(name, parent, stmt string, replay int, f func() error) (float64, error) {
	start := time.Now()
	err := f()
	ms := msSince(start)
	t.add(name, parent, stmt, replay, start, ms, nil)
	return ms, err
}

// traceFile is the on-disk shape of benchmark/out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Ladder   *rung  `json:"ladder"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64, ladder *rung) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Ladder: ladder, Spans: t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// rung is one level of the ladder: what one operation spends in a call,
// and the rungs directly beneath it.
type rung struct {
	Name     string  `json:"name"`
	Ms       float64 `json:"ms"`
	SelfMs   float64 `json:"self_ms"`
	Children []*rung `json:"children,omitempty"`
}

// newRung builds a rung and computes its self time: its duration minus the
// rungs directly beneath it. A negative self time is kept as measured — it
// means the rungs below, replayed on their own, cost more than the call
// that contains them (a cache above them saved the work).
func newRung(name string, ms float64, children ...*rung) *rung {
	r := &rung{Name: name, Ms: ms, SelfMs: ms, Children: children}
	for _, c := range children {
		r.SelfMs -= c.Ms
	}
	return r
}

// unattributed is the share of the rung's duration no lower rung accounts
// for.
func (r *rung) unattributed() float64 {
	if r == nil || r.Ms <= 0 {
		return 0
	}
	return r.SelfMs / r.Ms
}
