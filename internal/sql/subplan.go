package sql

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/storage"
)

// The subplan seam splits a shareable prepared statement in two along the
// frame lattice (core/factor.go):
//
//   - the *scan+reorder subplan* — WHERE filtering plus the chain's single
//     heavy reorder — which depends only on (table, predicate, γ) and not
//     on the statement's window functions, projection or finalize clauses;
//   - the *derivation suffix* — window evaluation, projection, DISTINCT /
//     ORDER BY / LIMIT — which is scan-only over the subplan's output
//     (Theorem 1) and therefore cheap.
//
// Two different statements whose subplan identities collide (or whose
// functions are matched by a finer cached segment — the lattice hit) can
// share one physical execution of the expensive half. The service's
// shared-subplan cache (internal/service) is the coordination point; this
// file provides the statement-side mechanics.

// SharedSegment is a materialized scan+reorder subplan execution: the
// filtered, reordered base-schema rows, the physical stream property the
// row order carries, and the scan's metrics (charged once, to the query
// that executed it). The table is immutable and its rows are never
// extended — a suffix chain has no reorder, so every function evaluates
// into a vector beside the rows (exec.RunChain) — and one segment serves
// any number of attached cursors at once without being copied.
type SharedSegment struct {
	Table   *storage.Table
	Props   core.Props
	Metrics *exec.Metrics
	// DataGen is the catalog data generation the scan observed.
	DataGen uint64

	prep *Prepared // the statement that ran the scan
}

// Current reports whether the segment still holds the rows a scan would
// read now: the statement that ran it is current and no append has moved
// its table past the generation the scan observed.
func (s *SharedSegment) Current() bool {
	return s.prep.Current() && s.prep.entry.DataGen() == s.DataGen
}

// Shareable reports whether the statement splits at the subplan seam: a
// planned chain led by one heavy reorder (FS/HS) with every later step
// reorder-free, executing sequentially. Multi-reorder chains and parallel
// configurations execute privately — their physical shape is not a single
// shared segment.
func (p *Prepared) Shareable() bool { return p.shareable }

// SubplanScanKey is the canonical identity of the statement's scan input:
// the lowercased table name and the canonicalized WHERE predicate. It is
// the frame-lattice *group* — statements in one group read the same rows
// and differ only in their reorder node. Empty when the statement is not
// shareable.
func (p *Prepared) SubplanScanKey() string { return p.scanKey }

// SubplanNode is the statement's frame-lattice node: the canonical form of
// the chain's leading heavy reorder (core.LatticeNode). Empty when the
// statement is not shareable.
func (p *Prepared) SubplanNode() string { return p.node }

// AppendSubplanKey appends the key a shared segment of the statement is
// cached under to dst, and returns it with the length of its group. The
// group is the scan key qualified by the catalog entry (its registration
// generation) and the data generation a scan would read now, so a lookup
// finds only segments of the rows it would read itself; the node follows
// it: "e<generation>|d<data generation>|<scan key>|<node>".
func (p *Prepared) AppendSubplanKey(dst []byte) (key []byte, group int) {
	dst = append(dst, 'e')
	dst = strconv.AppendUint(dst, p.entry.Generation(), 10)
	dst = append(dst, "|d"...)
	dst = strconv.AppendUint(dst, p.entry.DataGen(), 10)
	dst = append(append(dst, '|'), p.scanKey...)
	group = len(dst)
	return append(append(dst, '|'), p.node...), group
}

// SubplanProps is the physical stream property of the subplan's output —
// what a shared segment cached under this statement's key carries.
func (p *Prepared) SubplanProps() core.Props {
	if !p.shareable {
		return core.Unordered()
	}
	return p.plan.Steps[0].Out
}

// WFs returns the statement's window functions in spec order, for lattice
// matching against a candidate segment's properties.
func (p *Prepared) WFs() []core.WF {
	ws := make([]core.WF, len(p.specs))
	for i, s := range p.specs {
		ws[i] = s.WF(i)
	}
	return ws
}

// RunSubplan executes the scan+reorder subplan: WHERE filtering over a
// consistent table snapshot, then the chain's leading heavy reorder,
// materialized. The caller (the cache's singleflight leader) owns the
// returned segment and its metrics.
func (p *Prepared) RunSubplan(ctx context.Context) (*SharedSegment, error) {
	if !p.shareable {
		return nil, errors.New("sql: statement has no shareable subplan")
	}
	base, gen := p.entry.Snapshot()
	wt, err := p.filterWhere(base, nil)
	if err != nil {
		return nil, err
	}
	cfg := p.cfg
	cfg.Parallelism = 1
	seg, metrics, err := exec.ReorderTable(ctx, wt, p.plan.Steps[0], cfg)
	if err != nil {
		return nil, err
	}
	p.estimate(metrics.Steps, p.plan.Steps[:1])
	return &SharedSegment{Table: seg, Props: p.plan.Steps[0].Out, Metrics: metrics, DataGen: gen, prep: p}, nil
}

// runSuffix executes the statement's derivation suffix over a shared
// segment (Input.Shared): the chain re-derived against the segment's stream
// property (every step reorder-free, by core.DeriveSuffix), run
// sequentially, filling result like runChain. chargeScan merges the
// segment's scan metrics into the result.
func (p *Prepared) runSuffix(ctx context.Context, seg *SharedSegment, chargeScan bool, result *Meta) (*exec.Chain, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	suffix, ok := core.DeriveSuffix(p.plan, seg.Props)
	if !ok {
		return nil, fmt.Errorf("sql: shared segment %s does not cover the statement", seg.Props)
	}
	cfg := p.cfg
	cfg.Parallelism = 1
	out, metrics, err := exec.RunChain(ctx, seg.Table, p.specs, suffix, cfg)
	if err != nil {
		return nil, err
	}
	if chargeScan && seg.Metrics != nil {
		merged := &exec.Metrics{
			BlocksRead:    seg.Metrics.BlocksRead + metrics.BlocksRead,
			BlocksWritten: seg.Metrics.BlocksWritten + metrics.BlocksWritten,
			Comparisons:   seg.Metrics.Comparisons + metrics.Comparisons,
			Elapsed:       seg.Metrics.Elapsed + metrics.Elapsed,
		}
		merged.Steps = append(append([]exec.StepMetrics{}, seg.Metrics.Steps...), metrics.Steps...)
		metrics = merged
	}
	// Meta.Plan is the suffix chain: truthful for this execution (no
	// reorders ran) and what EXPLAIN renders. Its final property replays to
	// Unordered, so a final ORDER BY is satisfied by a stable full sort —
	// over a segment already carrying the order that sort is the identity
	// permutation, so shared and private executions emit identical rows in
	// identical order for any totally-ordering ORDER BY.
	*result = Meta{FinalSort: "none", Parallelism: 1, EstRows: p.entry.Rows(), Plan: suffix, Chain: p.suffixChain, Exec: metrics}
	return out, nil
}

// canonExpr renders a predicate in canonical form — lowercased column
// names, uppercased operators, fully parenthesized, literals normalized —
// so two spellings of one predicate produce one subplan key. A nil
// predicate renders as the empty string.
func canonExpr(e Expr) string {
	switch n := e.(type) {
	case nil:
		return ""
	case *ColumnRef:
		return strings.ToLower(n.Name)
	case *LitExpr:
		return canonLit(n.Lit)
	case *NotExpr:
		return "(NOT " + canonExpr(n.E) + ")"
	case *IsNullExpr:
		if n.Not {
			return "(" + canonExpr(n.E) + " IS NOT NULL)"
		}
		return "(" + canonExpr(n.E) + " IS NULL)"
	case *BinaryExpr:
		return "(" + canonExpr(n.L) + " " + strings.ToUpper(n.Op) + " " + canonExpr(n.R) + ")"
	default:
		return fmt.Sprintf("<%T>", e)
	}
}

func canonLit(l Literal) string {
	switch {
	case l.IsNull:
		return "NULL"
	case l.Int != nil:
		return strconv.FormatInt(*l.Int, 10)
	case l.Float != nil:
		return strconv.FormatFloat(*l.Float, 'g', -1, 64)
	case l.Str != nil:
		return "'" + strings.ReplaceAll(*l.Str, "'", "''") + "'"
	case l.Bool != nil:
		if *l.Bool {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "NULL"
	}
}
