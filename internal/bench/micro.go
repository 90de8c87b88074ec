package bench

import (
	"context"
	"io"
	"time"

	"repro/internal/attrs"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/paper"
	"repro/internal/storage"
	"repro/internal/window"
)

// MicroResult is one (query, memory, operator) measurement of the
// micro-benchmark: the plan execution time and spill I/O of a single
// rank() evaluation under one reordering operator.
type MicroResult struct {
	Query       string
	Mem         MemPoint
	Op          core.ReorderKind
	Elapsed     time.Duration
	Blocks      int64 // spill blocks read+written
	Comparisons int64
	Detail      string
}

// runMicro executes one single-function plan step over a table.
func (d *Dataset) runMicro(table *storage.Table, spec window.Spec, op core.ReorderKind, mem MemPoint, inProps core.Props) (MicroResult, error) {
	wf := spec.WF(0)
	step := core.Step{WF: wf, Reorder: op, In: inProps}
	switch op {
	case core.ReorderFS:
		step.SortKey = wf.PK.AscSeq().Concat(wf.OK)
		step.Out = core.TotallyOrdered(step.SortKey)
	case core.ReorderHS:
		step.SortKey = wf.PK.AscSeq().Concat(wf.OK)
		step.HashKey = wf.PK
		step.Out = core.Props{X: wf.PK, Y: step.SortKey}
	case core.ReorderSS:
		choice, ok := core.PlanSS(inProps, wf)
		if !ok {
			return MicroResult{}, errNotSS
		}
		step.SortKey = choice.Target
		step.Alpha, step.Beta = choice.Alpha, choice.Beta
		step.Out = choice.Out
	}
	plan := &core.Plan{Scheme: op.String(), Steps: []core.Step{step}}
	cfg := exec.Config{
		MemoryBytes: mem.Bytes(d.Cfg.BlockSize),
		BlockSize:   d.Cfg.BlockSize,
		Distinct:    d.Entry.Distinct,
	}
	metrics, err := runChain(table, []window.Spec{spec}, plan, cfg)
	if err != nil {
		return MicroResult{}, err
	}
	return MicroResult{
		Mem:         mem,
		Op:          op,
		Elapsed:     metrics.Elapsed,
		Blocks:      metrics.TotalBlocks(),
		Comparisons: metrics.Comparisons,
		Detail:      metrics.Steps[0].Detail,
	}, nil
}

// runChain runs plan over table and releases the chain: a scenario reads
// only its metrics.
func runChain(table *storage.Table, specs []window.Spec, plan *core.Plan, cfg exec.Config) (*exec.Metrics, error) {
	chain, metrics, err := exec.RunChain(context.Background(), table, specs, plan, cfg)
	if err != nil {
		return nil, err
	}
	chain.Release()
	return metrics, nil
}

var errNotSS = errSentinel("input is not SS-reorderable")

type errSentinel string

func (e errSentinel) Error() string { return string(e) }

// RunFig3 reproduces Figure 3: FS vs HS for Q1 (medium partition count),
// Q2 (near-unique partitions) and Q3 (16 oversized partitions) across the
// memory sweep.
func (d *Dataset) RunFig3(w io.Writer) ([]MicroResult, error) {
	var out []MicroResult
	fprintf(w, "== Figure 3: micro-benchmark part 1, FS vs HS (web_sales, %d rows, B=%d blocks) ==\n",
		d.Cfg.Rows, d.Blocks)
	for _, q := range paper.MicroQueries()[:3] {
		fprintf(w, "\n-- %s: rank() OVER (PARTITION BY %s ORDER BY %s) -- %s\n",
			q.Name, q.Spec.PK, q.Spec.OK, q.Comment)
		fprintf(w, "%-8s  %12s  %12s  %10s  %10s\n", "M", "FS time", "HS time", "FS blocks", "HS blocks")
		for _, mem := range d.MicroMemSweep() {
			fs, err := d.runMicro(d.WebSales, q.Spec, core.ReorderFS, mem, core.Unordered())
			if err != nil {
				return nil, err
			}
			hs, err := d.runMicro(d.WebSales, q.Spec, core.ReorderHS, mem, core.Unordered())
			if err != nil {
				return nil, err
			}
			fs.Query, hs.Query = q.Name, q.Name
			out = append(out, fs, hs)
			fprintf(w, "%-8s  %12v  %12v  %10d  %10d\n",
				mem.Label, fs.Elapsed.Round(time.Millisecond), hs.Elapsed.Round(time.Millisecond), fs.Blocks, hs.Blocks)
		}
	}
	return out, nil
}

// RunFig4 reproduces Figure 4: SS vs FS and HS on the sorted (Q4) and
// grouped (Q5) web_sales variants.
func (d *Dataset) RunFig4(w io.Writer) ([]MicroResult, error) {
	var out []MicroResult
	fprintf(w, "== Figure 4: micro-benchmark part 2, SS vs FS and HS ==\n")
	cases := []struct {
		q     paper.MicroQuery
		table *storage.Table
		props core.Props
	}{
		{paper.MicroQueries()[3], d.WebSalesS, core.TotallyOrdered(attrs.AscSeq(paper.Quantity))},
		{paper.MicroQueries()[4], d.WebSalesG, core.Props{X: attrs.MakeSet(paper.Quantity), Grouped: true}},
	}
	for _, c := range cases {
		fprintf(w, "\n-- %s on %s: rank() OVER (PARTITION BY %s ORDER BY %s) -- %s\n",
			c.q.Name, c.q.Table, c.q.Spec.PK, c.q.Spec.OK, c.q.Comment)
		fprintf(w, "%-8s  %12s  %12s  %12s  %10s  %10s  %10s\n",
			"M", "FS time", "HS time", "SS time", "FS blk", "HS blk", "SS blk")
		for _, mem := range d.MicroMemSweep() {
			fs, err := d.runMicro(c.table, c.q.Spec, core.ReorderFS, mem, c.props)
			if err != nil {
				return nil, err
			}
			hs, err := d.runMicro(c.table, c.q.Spec, core.ReorderHS, mem, c.props)
			if err != nil {
				return nil, err
			}
			ss, err := d.runMicro(c.table, c.q.Spec, core.ReorderSS, mem, c.props)
			if err != nil {
				return nil, err
			}
			fs.Query, hs.Query, ss.Query = c.q.Name, c.q.Name, c.q.Name
			out = append(out, fs, hs, ss)
			fprintf(w, "%-8s  %12v  %12v  %12v  %10d  %10d  %10d\n",
				mem.Label,
				fs.Elapsed.Round(time.Millisecond), hs.Elapsed.Round(time.Millisecond), ss.Elapsed.Round(time.Millisecond),
				fs.Blocks, hs.Blocks, ss.Blocks)
		}
	}
	return out, nil
}
