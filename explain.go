package windowdb

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/trace"
)

// StripExplainAnalyze recognizes an `EXPLAIN ANALYZE <stmt>` prefix
// (case-insensitive, whitespace-tolerant) and returns the inner statement.
// The SQL grammar itself is untouched: every backend strips the prefix at
// its front door, executes the inner statement to completion through its
// normal path, and returns the annotated rendering as a one-column text
// cursor — so EXPLAIN ANALYZE observes exactly the plan, admission and
// routing the bare statement would.
func StripExplainAnalyze(src string) (string, bool) {
	s := strings.TrimSpace(src)
	rest, ok := stripKeyword(s, "explain")
	if !ok {
		return src, false
	}
	rest, ok = stripKeyword(rest, "analyze")
	if !ok {
		return src, false
	}
	if rest == "" {
		return src, false
	}
	return rest, true
}

// stripKeyword strips one leading keyword followed by whitespace.
func stripKeyword(s, kw string) (string, bool) {
	if len(s) <= len(kw) || !strings.EqualFold(s[:len(kw)], kw) {
		return s, false
	}
	switch s[len(kw)] {
	case ' ', '\t', '\r', '\n':
	default:
		return s, false
	}
	return strings.TrimLeft(s[len(kw):], " \t\r\n"), true
}

// ExplainAnalyzeRows executes inner through q, drains it, and returns the
// annotated plan/trace rendering as a one-column cursor. Backends call it
// on themselves after StripExplainAnalyze matches.
func ExplainAnalyzeRows(ctx context.Context, q Queryer, inner string) (*Rows, error) {
	rows, err := q.QueryContext(ctx, inner)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return NewTextRows("explain_analyze", RenderAnalyze(rows.Metrics())), nil
}

// RenderAnalyze flattens a drained query's metadata into the EXPLAIN
// ANALYZE lines: the planned chain with per-step actual vs. estimated
// rows and comparisons and the spill I/O, the final-sort disposition, the
// plan-cache disposition, the route, and the recorded span tree.
func RenderAnalyze(m *QueryMetrics) []string {
	if m == nil {
		return []string{"(no metrics: stream ended without a trailer)"}
	}
	var lines []string
	if m.Chain != "" {
		lines = append(lines, "chain: "+m.Chain)
	}
	if m.Exec != nil {
		for _, st := range m.Exec.Steps {
			est := ""
			if m.EstRows > 0 {
				est = fmt.Sprintf(" (est %d)", m.EstRows)
			}
			line := fmt.Sprintf("  wf%d [%s]  rows=%d%s  spill r=%d w=%d  cmp=%d est_cmps=%d  %v",
				st.WFID+1, st.Reorder, st.Rows, est,
				st.BlocksRead, st.BlocksWritten, st.Comparisons, st.EstComparisons,
				st.Duration.Round(10_000)) // 10µs
			if st.Detail != "" {
				line += "  " + st.Detail
			}
			lines = append(lines, line)
		}
	}
	if m.FinalSort != "" {
		lines = append(lines, fmt.Sprintf("final sort: %s (satisfied prefix %d)", m.FinalSort, m.SatisfiedPrefix))
	}
	if f := m.Finalize; f.Duration > 0 {
		line := fmt.Sprintf("finalize: rows %d -> %d  %v", f.RowsIn, f.RowsOut, f.Duration.Round(10_000))
		if f.TopK {
			line += "  top-k"
		}
		lines = append(lines, line)
	}
	planCache := "miss"
	if m.CacheHit {
		planCache = "hit"
	}
	lines = append(lines, "plan cache: "+planCache)
	if m.Route != "" {
		lines = append(lines, fmt.Sprintf("route: %s over %d shard(s)", m.Route, m.ShardsUsed))
	}
	lines = append(lines, fmt.Sprintf("rows: %d  elapsed: %v  blocks: %d read, %d written",
		m.Rows, m.Elapsed.Round(10_000), m.BlocksRead, m.BlocksWritten))
	if m.Trace != nil {
		id := m.TraceID
		if id == "" {
			id = "(unassigned)"
		}
		lines = append(lines, "trace "+id+":")
		for _, l := range trace.Render(m.Trace) {
			lines = append(lines, "  "+l)
		}
	}
	return lines
}

// ExecElapsed is the time the statement spent executing in this process:
// the window chain plus the finalize phase.
func (m *QueryMetrics) ExecElapsed() time.Duration {
	d := m.Finalize.Duration
	if m.Exec != nil {
		d += m.Exec.Elapsed
	}
	return d
}

// ExecTrace builds the executor span subtree — one child per chain step
// with reorder kind, cardinality, spill counters and, on a reordering
// step, its comparisons (cmps, and the cost model's est_cmps), and one for
// the finalize phase (DISTINCT, the final sort) — from a query's metrics.
// In-process backends hang it under their serving spans; nil when neither
// phase ran in this process (a Finalize of zero duration is a statement
// without DISTINCT or ORDER BY).
func ExecTrace(m *QueryMetrics) *trace.Span {
	if m == nil || (m.Exec == nil && m.Finalize.Duration == 0) {
		return nil
	}
	var steps []exec.StepMetrics
	if m.Exec != nil {
		steps = m.Exec.Steps
	}
	// Every span of the subtree is carved from one slab, the root's
	// children from one array: appending within their capacity moves no
	// span a pointer already names.
	spans := make([]trace.Span, 1, len(steps)+2)
	children := make([]*trace.Span, 0, len(steps)+1)
	add := func(name string, d time.Duration) *trace.Span {
		spans = append(spans, trace.Span{Name: name, DurationMillis: trace.Millis(d)})
		c := &spans[len(spans)-1]
		children = append(children, c)
		return c
	}
	s := &spans[0]
	*s = trace.Span{Name: "execute", DurationMillis: trace.Millis(m.ExecElapsed())}
	if m.Chain != "" {
		s.SetAttr("chain", m.Chain)
	}
	if m.Parallelism > 1 {
		s.SetInt("parallelism", int64(m.Parallelism))
	}
	if m.FinalSort != "" && m.FinalSort != "none" {
		s.SetAttr("final_sort", m.FinalSort)
	}
	for _, st := range steps {
		c := add(stepName(st.WFID), st.Duration)
		c.SetAttr("reorder", st.Reorder.String())
		c.SetInt("rows", st.Rows)
		if m.EstRows > 0 {
			c.SetInt("est_rows", m.EstRows)
		}
		c.SetInt("spilled_blocks", st.BlocksWritten)
		c.SetInt("blocks_read", st.BlocksRead)
		if st.Reorder != core.ReorderNone {
			c.SetInt("cmps", st.Comparisons)
			c.SetInt("est_cmps", st.EstComparisons)
		}
		if st.Detail != "" {
			c.SetAttr("detail", st.Detail)
		}
	}
	if f := m.Finalize; f.Duration > 0 {
		c := add("finalize", f.Duration)
		c.SetInt("rows_in", f.RowsIn)
		c.SetInt("rows_out", f.RowsOut)
		c.SetAttr("final_sort", m.FinalSort)
		c.SetAttr("top_k", strconv.FormatBool(f.TopK))
	}
	s.Children = children
	return s
}

// stepNames are the names of the step spans of the first wf IDs, so that
// naming one allocates nothing.
var stepNames = func() (names [32]string) {
	for i := range names {
		names[i] = "step wf" + strconv.Itoa(i+1)
	}
	return names
}()

// stepName names the span of the step evaluating function id: "step wf"
// and the paper's 1-based label.
func stepName(id int) string {
	if id >= 0 && id < len(stepNames) {
		return stepNames[id]
	}
	return "step wf" + strconv.Itoa(id+1)
}

// NewTextRows builds a static one-column string cursor — the vehicle for
// EXPLAIN ANALYZE output and other rendered text results on the Rows
// surface.
func NewTextRows(col string, lines []string) *Rows {
	rows := make([]storage.Tuple, len(lines))
	for i, line := range lines {
		rows[i] = storage.Tuple{storage.StringVal(line)}
	}
	return newStaticRows([]storage.Column{{Name: col, Type: storage.TypeString}}, rows)
}

// staticSource is the RowSource behind the results a backend already holds
// as rows: rendered text, an INSERT's summary.
type staticSource struct {
	cols []storage.Column
	b    *stream.Batcher
}

func newStaticRows(cols []storage.Column, rows []storage.Tuple) *Rows {
	next := func() (storage.Tuple, error) {
		if len(rows) == 0 {
			return nil, io.EOF
		}
		t := rows[0]
		rows = rows[1:]
		return t, nil
	}
	return NewRows(&staticSource{cols: cols, b: stream.NewBatcher(len(cols), stream.BatchRows(len(cols)), next)})
}

func (ss *staticSource) Columns() []storage.Column         { return ss.cols }
func (ss *staticSource) NextBatch() (*stream.Batch, error) { return ss.b.NextBatch() }
func (ss *staticSource) End(Ending) *QueryMetrics          { return &QueryMetrics{} }
