package sql

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/xsort"
)

// Scheme names a window-function optimization scheme.
type Scheme string

// The four schemes evaluated in the paper's Section 6.
const (
	SchemeCSO  Scheme = "CSO"
	SchemeBFO  Scheme = "BFO"
	SchemeORCL Scheme = "ORCL"
	SchemePSQL Scheme = "PSQL"
)

// Runner executes window queries against a catalog.
type Runner struct {
	Catalog *catalog.Catalog
	// Scheme selects the plan generator (default CSO).
	Scheme Scheme
	// Exec carries the execution resources (unit reorder memory etc.).
	Exec exec.Config
	// DisableHS / DisableSS restrict the optimizer to the paper's CSO(v1)
	// / CSO(v2) ablation variants, matching windowdb.Config's switches.
	DisableHS bool
	DisableSS bool
}

// Meta is an executed statement's record: the window chain and its
// execution metrics (nil when the statement had no window functions), and
// how its terminal phases ran.
type Meta struct {
	Plan *core.Plan
	// Chain is Plan in the paper's notation (core.Plan.PaperString), ""
	// when windowless; remote backends take it from the stream trailer. It
	// is rendered once per prepared plan, not per execution.
	Chain string
	Exec  *exec.Metrics
	// FinalSort reports how the query's ORDER BY was satisfied: "none"
	// (no ORDER BY), "full" (explicit sort), "partial" (the chain's output
	// ordering pre-satisfied a prefix; only within-group sorting remained)
	// or "avoided" (the chain's output already satisfied it — Section 5's
	// interesting-order integration).
	FinalSort string
	// SatisfiedPrefix counts the leading ORDER BY elements the chain's
	// output ordering guaranteed.
	SatisfiedPrefix int
	// Parallelism is the worker degree the chain actually executed with:
	// 1 when every step ran on the sequential pipeline — including chains
	// Chain.Run found no partition key for — and the configured degree
	// when at least one segment ran
	// hash-partitioned (Exec.PartitionedSteps > 0). When the final
	// segment ran partitioned (Exec.Concatenated), the chain's nominal
	// output ordering is not preserved and any ORDER BY is satisfied by a
	// full explicit sort; chains run sequentially end to end keep
	// Section 5's sort avoidance.
	Parallelism int
	// EstRows is the planner's input-cardinality estimate for the queried
	// table (catalog |R|): the "estimated rows" EXPLAIN ANALYZE contrasts
	// with each step's observed cardinality.
	EstRows int64
	// Finalize measures the DISTINCT / ORDER BY phase; zero for a statement
	// without one (and for a shard-local execution, which stops short of it).
	Finalize FinalizeMetrics
	// Watermark is the table data generation a maintained (SUBSCRIBE)
	// cursor's output is current as of; 0 for one-shot queries.
	Watermark uint64
	// SharedScan is the shared-subplan cache disposition of this execution
	// — "miss" (this query ran the scan), "hit" (served from a completed
	// segment) or "attach" (waited on an in-flight scan). Empty when the
	// execution did not go through the shared-subplan cache. Set by the
	// serving layer.
	SharedScan string
	// SharedWait is the time the serving layer spent in the shared-subplan
	// cache that Exec does not book: a hit's lookup, an attacher's wait,
	// a leader's scan short of its reorder.
	SharedWait time.Duration
}

// Result is an executed statement materialized: its output table and its
// record.
type Result struct {
	Table *storage.Table
	Meta
}

// FinalizeMetrics measures a statement's terminal phase: DISTINCT and the
// final ORDER BY, bounded by LIMIT, decided over the chain's row positions.
type FinalizeMetrics struct {
	Duration time.Duration
	// RowsIn is the chain's row count, RowsOut how many of them leave.
	RowsIn, RowsOut int64
	// TopK reports that ORDER BY ... LIMIT k ran as a bounded selection of
	// k positions rather than a sort of all of them.
	TopK bool
}

// resolveOutputColumn finds the first SELECT item whose visible name is
// name and, when that item projects a base-table column, returns the base
// column index. Window-function items and unmatched names return false.
func resolveOutputColumn(items []SelectItem, schema *storage.Schema, name string) (int, bool) {
	for _, item := range items {
		switch {
		case item.Star:
			if c := schema.ColIndex(name); c >= 0 {
				return c, true
			}
		case item.Window != nil:
			visible := item.Alias
			if visible == "" {
				visible = item.Window.Func
			}
			if strings.EqualFold(visible, name) {
				return 0, false
			}
		default:
			visible := item.Alias
			if visible == "" {
				visible = item.Column
			}
			if strings.EqualFold(visible, name) {
				c := schema.ColIndex(item.Column)
				return c, c >= 0
			}
		}
	}
	return 0, false
}

// identity writes 0..len(idx)-1 into idx and returns it.
func identity(idx []int) []int {
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// partialSort exploits a pre-satisfied key prefix: the n candidates already
// arrive in runs that agree on it, so only each run needs sorting on the
// key remainder — the partial sort of [7, 13], which Section 3.3 identifies
// as a special case of Segmented Sort. It returns the first want candidates
// of that order, listing and sorting only the runs that cover them; the
// list is *out and the sort's scratch *scratch, each grown when too short.
func partialSort(out, scratch *[]int, n, want int, prefix, rest func(i, j int) int) []int {
	// Candidate want-1 may fall inside a run: the sorting ends where it does.
	end := want
	for end > 0 && end < n && prefix(end-1, end) == 0 {
		end++
	}
	order := identity(ints(out, end))
	sc := ints(scratch, end/2) // xsort.Stable's, enough for any run
	for start := 0; start < end; {
		stop := start + 1
		for stop < end && prefix(start, stop) == 0 {
			stop++
		}
		xsort.Stable(order[start:stop], sc, rest)
		start = stop
	}
	return order[:want]
}

// FormatTable renders a result table with padded columns, for examples and
// the CLI.
func FormatTable(t *storage.Table, maxRows int) string {
	var sb strings.Builder
	widths := make([]int, t.Schema.Len())
	for i, c := range t.Schema.Columns {
		widths[i] = len(c.Name)
	}
	n := t.Len()
	if maxRows > 0 && n > maxRows {
		n = maxRows
	}
	for _, row := range t.Rows[:n] {
		for i, v := range row {
			if l := len(v.String()); l > widths[i] {
				widths[i] = l
			}
		}
	}
	for i, c := range t.Schema.Columns {
		if i > 0 {
			sb.WriteString("  ")
		}
		fmt.Fprintf(&sb, "%-*s", widths[i], strings.ToUpper(c.Name))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows[:n] {
		for i, v := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], v.String())
		}
		sb.WriteByte('\n')
	}
	if n < t.Len() {
		fmt.Fprintf(&sb, "... (%d more rows)\n", t.Len()-n)
	}
	return sb.String()
}
