package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/attrs"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/paper"
	"repro/internal/storage"
	"repro/internal/window"
)

// AblationResult is one measurement of a design-choice ablation.
type AblationResult struct {
	Experiment  string
	Variant     string
	Elapsed     time.Duration
	Blocks      int64
	Comparisons int64
	Detail      string
}

// RunAblations measures the design choices DESIGN.md calls out: HS bucket
// count, the MFV bypass on Q3's oversized partitions, and SS's
// α-maximization rule.
func (d *Dataset) RunAblations(w io.Writer) ([]AblationResult, error) {
	var out []AblationResult
	record := func(exp, variant string, r MicroResult) {
		out = append(out, AblationResult{
			Experiment: exp, Variant: variant,
			Elapsed: r.Elapsed, Blocks: r.Blocks, Comparisons: r.Comparisons, Detail: r.Detail,
		})
		fprintf(w, "  %-28s  %12v  %10d blk  %12d cmp  %s\n",
			variant, r.Elapsed.Round(time.Millisecond), r.Blocks, r.Comparisons, r.Detail)
	}
	smallMem := d.MicroMemSweep()[2] // the "50MB" point
	largeMem := d.MicroMemSweep()[6] // the "500MB" point
	q1 := paper.MicroQueries()[0].Spec

	// 1. HS bucket count: the policy default vs fixed counts.
	fprintf(w, "== Ablation 1: HS bucket count (Q1 @ %s) ==\n", smallMem.Label)
	for _, b := range []int{0, 16, 64, 1024} {
		name := "policy-default"
		if b > 0 {
			name = fmt.Sprintf("buckets=%d", b)
		}
		r, err := d.runMicroWith(d.WebSales, q1, core.ReorderHS, smallMem, core.Unordered(), func(c *exec.Config) {
			c.HSBuckets = b
		})
		if err != nil {
			return nil, err
		}
		record("bucket-count", name, r)
	}

	// 2. MFV bypass on Q3 (16 partitions, every one larger than memory) at
	// large M — the pathology Fig. 3(c) discusses; the paper's prototype did
	// not implement the bypass.
	q3 := paper.MicroQueries()[2].Spec
	fprintf(w, "== Ablation 2: HS most-frequent-value bypass (Q3 @ %s) ==\n", largeMem.Label)
	for _, withMFV := range []bool{false, true} {
		name := "no-bypass (paper prototype)"
		if withMFV {
			name = "mfv-bypass"
		}
		r, err := d.runMicroWith(d.WebSales, q3, core.ReorderHS, largeMem, core.Unordered(), func(c *exec.Config) {
			if withMFV {
				mem := largeMem.Bytes(d.Cfg.BlockSize)
				c.MFV = func(key attrs.Set) map[string]bool { return d.Entry.MFVs(key, mem) }
			}
		})
		if err != nil {
			return nil, err
		}
		record("mfv-bypass", name, r)
	}

	// 3. SS α-maximization (footnote 2): α = (quantity, item) — many small
	// units — vs the shorter α = (quantity) with larger per-unit sorts.
	// Input: web_sales_s extended to order (quantity, item); target
	// wf = ({quantity, item}, (time)).
	fprintf(w, "== Ablation 3: SS α choice (web_sales sorted on (quantity,item)) ==\n")
	sorted := d.WebSalesS.Clone()
	sorted.SortBy(attrs.AscSeq(paper.Quantity, paper.Item))
	spec := window.Spec{
		Name: "rank", Kind: window.Rank, Arg: -1,
		PK: attrs.MakeSet(paper.Quantity, paper.Item),
		OK: attrs.AscSeq(paper.Time),
	}
	target := attrs.AscSeq(paper.Quantity, paper.Item, paper.Time)
	for _, v := range []struct {
		name  string
		alpha attrs.Seq
		beta  attrs.Seq
	}{
		{"alpha-max (quantity,item)", attrs.AscSeq(paper.Quantity, paper.Item), attrs.AscSeq(paper.Time)},
		{"alpha-short (quantity)", attrs.AscSeq(paper.Quantity), attrs.AscSeq(paper.Item, paper.Time)},
	} {
		step := core.Step{
			WF: spec.WF(0), Reorder: core.ReorderSS,
			SortKey: target, Alpha: v.alpha, Beta: v.beta,
			In:  core.TotallyOrdered(attrs.AscSeq(paper.Quantity, paper.Item)),
			Out: core.TotallyOrdered(target),
		}
		plan := &core.Plan{Scheme: "SS", Steps: []core.Step{step}}
		cfg := exec.Config{
			MemoryBytes: smallMem.Bytes(d.Cfg.BlockSize),
			BlockSize:   d.Cfg.BlockSize,
			Distinct:    d.Entry.Distinct,
		}
		metrics, err := runChain(sorted, []window.Spec{spec}, plan, cfg)
		if err != nil {
			return nil, err
		}
		record("ss-alpha", v.name, MicroResult{
			Elapsed: metrics.Elapsed, Blocks: metrics.TotalBlocks(),
			Comparisons: metrics.Comparisons, Detail: metrics.Steps[0].Detail,
		})
	}
	return out, nil
}

// runMicroWith is runMicro plus a config mutator.
func (d *Dataset) runMicroWith(table *storage.Table, spec window.Spec, op core.ReorderKind, mem MemPoint, in core.Props, mutate func(*exec.Config)) (MicroResult, error) {
	wf := spec.WF(0)
	step := core.Step{WF: wf, Reorder: op, In: in}
	switch op {
	case core.ReorderFS:
		step.SortKey = wf.PK.AscSeq().Concat(wf.OK)
		step.Out = core.TotallyOrdered(step.SortKey)
	case core.ReorderHS:
		step.SortKey = wf.PK.AscSeq().Concat(wf.OK)
		step.HashKey = wf.PK
		step.Out = core.Props{X: wf.PK, Y: step.SortKey}
	}
	plan := &core.Plan{Scheme: op.String(), Steps: []core.Step{step}}
	cfg := exec.Config{
		MemoryBytes: mem.Bytes(d.Cfg.BlockSize),
		BlockSize:   d.Cfg.BlockSize,
		Distinct:    d.Entry.Distinct,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	metrics, err := runChain(table, []window.Spec{spec}, plan, cfg)
	if err != nil {
		return MicroResult{}, err
	}
	return MicroResult{
		Op: op, Mem: mem, Elapsed: metrics.Elapsed,
		Blocks: metrics.TotalBlocks(), Comparisons: metrics.Comparisons,
		Detail: metrics.Steps[0].Detail,
	}, nil
}
