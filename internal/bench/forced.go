package bench

import (
	"context"
	"fmt"

	"repro/internal/attrs"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/paper"
	"repro/internal/storage"
	"repro/internal/window"
)

// forced runs spec alone over t under the reorder op, whatever the planner
// would choose — the one-step chains of Figures 3–4 and the ablations — and
// fills r's measurements. in is the order t's rows already have; tune, when
// set, adjusts the step (SS's α) and the executor (HS buckets) before the
// run.
func (d *Dataset) forced(r Row, t *storage.Table, spec window.Spec, op core.ReorderKind, in core.Props, tune func(*core.Step, *exec.Config)) (Row, error) {
	wf := spec.WF(0)
	var step core.Step
	var err error
	if op == core.ReorderSS {
		var ok bool
		if step, ok = core.PlanSS(in, wf); !ok {
			err = fmt.Errorf("bench: %s is not SS-reorderable over its input", r.Query)
		}
	} else {
		step, err = core.NewStep(wf, op, in, wf.PK.AscSeq().Concat(wf.OK), wf.PK)
	}
	if err != nil {
		return r, err
	}
	cfg := exec.Config{
		MemoryBytes: r.Mem.Bytes(d.Cfg.BlockSize),
		BlockSize:   d.Cfg.BlockSize,
		Distinct:    d.Entry.Distinct,
	}
	if tune != nil {
		tune(&step, &cfg)
	}
	plan := &core.Plan{Scheme: op.String(), Steps: []core.Step{step}}
	chain, m, err := exec.RunChain(context.Background(), t, []window.Spec{spec}, plan, cfg)
	if err != nil {
		return r, fmt.Errorf("%s %s %s @%s: %w", r.Exp, r.Query, r.Variant, r.Mem.Label, err)
	}
	chain.Release()
	d.describe(&r, plan)
	r.Blocks, r.Comparisons, r.Elapsed, r.Detail = m.TotalBlocks(), m.Comparisons, m.Elapsed, m.Steps[0].Detail
	return r, nil
}

// microCase is one micro-benchmark input of Figures 3–4: a Table 1 query,
// the table variant it reads and the order that table's rows have.
type microCase struct {
	q     paper.MicroQuery
	table *storage.Table
	in    core.Props
}

// micro runs each query under each operator across the micro memory sweep.
func (d *Dataset) micro(exp string, cases []microCase, ops ...core.ReorderKind) ([]Row, error) {
	var out []Row
	for _, c := range cases {
		for _, mem := range d.MicroMemSweep() {
			for _, op := range ops {
				r, err := d.forced(Row{Exp: exp, Query: c.q.Name, Variant: op.String(), Mem: mem}, c.table, c.q.Spec, op, c.in, nil)
				if err != nil {
					return nil, err
				}
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// fig3 reproduces Figure 3: FS vs HS for Q1 (medium partition count), Q2
// (near-unique partitions) and Q3 (16 oversized partitions) across the
// memory sweep.
func (d *Dataset) fig3() ([]Row, error) {
	var cases []microCase
	for _, q := range paper.MicroQueries()[:3] {
		cases = append(cases, microCase{q, d.WebSales, core.Unordered()})
	}
	return d.micro("fig3", cases, core.ReorderFS, core.ReorderHS)
}

// fig4 reproduces Figure 4: SS vs FS and HS on the sorted (Q4) and grouped
// (Q5) web_sales variants.
func (d *Dataset) fig4() ([]Row, error) {
	qs := paper.MicroQueries()
	return d.micro("fig4", []microCase{
		{qs[3], d.WebSalesS, core.TotallyOrdered(attrs.AscSeq(paper.Quantity))},
		{qs[4], d.WebSalesG, core.Props{X: attrs.MakeSet(paper.Quantity), Grouped: true}},
	}, core.ReorderFS, core.ReorderHS, core.ReorderSS)
}

// ablations measures the design choices DESIGN.md calls out: HS bucket
// count and SS's α-maximization rule.
func (d *Dataset) ablations() ([]Row, error) {
	smallMem := d.MicroMemSweep()[2] // the "50MB" point
	var out []Row
	add := func(r Row, t *storage.Table, spec window.Spec, op core.ReorderKind, in core.Props, tune func(*core.Step, *exec.Config)) error {
		r.Exp = "ablation"
		r, err := d.forced(r, t, spec, op, in, tune)
		if err == nil {
			out = append(out, r)
		}
		return err
	}

	// 1. HS bucket count: the policy default vs fixed counts.
	q1 := paper.MicroQueries()[0].Spec
	for _, b := range []int{0, 16, 64, 1024} {
		name := "policy-default"
		if b > 0 {
			name = fmt.Sprintf("buckets=%d", b)
		}
		err := add(Row{Query: "bucket-count", Variant: name, Mem: smallMem}, d.WebSales, q1, core.ReorderHS, core.Unordered(),
			func(_ *core.Step, c *exec.Config) { c.HSBuckets = b })
		if err != nil {
			return nil, err
		}
	}

	// 2. SS α-maximization (footnote 2): α = (quantity, item) — many small
	// units — vs the shorter α = (quantity) with larger per-unit sorts.
	// Input: web_sales_s extended to order (quantity, item); target
	// wf = ({quantity, item}, (time)).
	sorted := d.WebSalesS.Clone()
	sorted.SortBy(attrs.AscSeq(paper.Quantity, paper.Item))
	spec := window.Spec{
		Name: "rank", Kind: window.Rank, Arg: -1,
		PK: attrs.MakeSet(paper.Quantity, paper.Item),
		OK: attrs.AscSeq(paper.Time),
	}
	in := core.TotallyOrdered(attrs.AscSeq(paper.Quantity, paper.Item))
	for _, v := range []struct {
		name        string
		alpha, beta attrs.Seq
	}{
		{"alpha-max (quantity,item)", attrs.AscSeq(paper.Quantity, paper.Item), attrs.AscSeq(paper.Time)},
		{"alpha-short (quantity)", attrs.AscSeq(paper.Quantity), attrs.AscSeq(paper.Item, paper.Time)},
	} {
		err := add(Row{Query: "ss-alpha", Variant: v.name, Mem: smallMem}, sorted, spec, core.ReorderSS, in,
			func(s *core.Step, _ *exec.Config) { s.Alpha, s.Beta = v.alpha, v.beta })
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
