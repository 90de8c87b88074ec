package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/paper"
	"repro/internal/window"
)

// SchemeResult is one (query, scheme, memory) measurement of the
// Figure 5–8 experiments.
type SchemeResult struct {
	Query   string
	Scheme  string
	Mem     MemPoint
	Plan    string
	Elapsed time.Duration
	Blocks  int64
	FS      int
	HS      int
	SS      int
}

// paperQuery returns the specs of Q6–Q9.
func paperQuery(name string) ([]window.Spec, error) {
	switch name {
	case "Q6":
		return paper.Q6(), nil
	case "Q7":
		return paper.Q7(), nil
	case "Q8":
		return paper.Q8(), nil
	case "Q9":
		return paper.Q9(), nil
	}
	return nil, fmt.Errorf("bench: unknown paper query %q", name)
}

// schemeVariant names one plan generator configuration.
type schemeVariant struct {
	name string
	opt  func(core.Options) core.Options
	run  func(ws []core.WF, opt core.Options) (*core.Plan, error)
}

func variants(query string) []schemeVariant {
	base := []schemeVariant{
		{name: "BFO", run: func(ws []core.WF, opt core.Options) (*core.Plan, error) {
			return core.BFO(ws, core.Unordered(), opt)
		}},
		{name: "CSO", run: func(ws []core.WF, opt core.Options) (*core.Plan, error) {
			return core.CSO(ws, core.Unordered(), opt)
		}},
	}
	if query == "Q6" {
		// Figure 5 additionally evaluates the CSO variants with HS or SS
		// disabled.
		base = append(base,
			schemeVariant{name: "CSO(v1)", run: func(ws []core.WF, opt core.Options) (*core.Plan, error) {
				opt.DisableHS = true
				return core.CSO(ws, core.Unordered(), opt)
			}},
			schemeVariant{name: "CSO(v2)", run: func(ws []core.WF, opt core.Options) (*core.Plan, error) {
				opt.DisableSS = true
				return core.CSO(ws, core.Unordered(), opt)
			}},
		)
	}
	base = append(base,
		schemeVariant{name: "ORCL", run: func(ws []core.WF, opt core.Options) (*core.Plan, error) {
			return core.ORCL(ws, core.Unordered(), opt)
		}},
		schemeVariant{name: "PSQL", run: func(ws []core.WF, opt core.Options) (*core.Plan, error) {
			return core.PSQL(ws, core.Unordered())
		}},
	)
	return base
}

// RunSchemes reproduces one of Figures 5–8: every scheme's chain for the
// named query executed at the three scaled memory points.
func (d *Dataset) RunSchemes(query string, w io.Writer) ([]SchemeResult, error) {
	specs, err := paperQuery(query)
	if err != nil {
		return nil, err
	}
	ws := paper.WFs(specs)
	fig := map[string]string{"Q6": "5", "Q7": "6", "Q8": "7", "Q9": "8"}[query]
	fprintf(w, "== Figure %s: %s with %d window functions (web_sales, %d rows) ==\n",
		fig, query, len(specs), d.Cfg.Rows)
	var out []SchemeResult
	for _, mem := range d.SchemeMemSweep() {
		fprintf(w, "\n-- unit reorder memory %s (%d blocks) --\n", mem.Label, mem.Blocks)
		fprintf(w, "%-8s  %12s  %10s  %-6s  %s\n", "scheme", "time", "blocks", "FS/HS/SS", "plan")
		for _, v := range variants(query) {
			opt := core.Options{Cost: d.costParams(mem)}
			plan, err := v.run(ws, opt)
			if err != nil {
				return nil, fmt.Errorf("%s %s @%s: %w", query, v.name, mem.Label, err)
			}
			cfg := exec.Config{
				MemoryBytes: mem.Bytes(d.Cfg.BlockSize),
				BlockSize:   d.Cfg.BlockSize,
				Distinct:    d.Entry.Distinct,
			}
			metrics, err := runChain(d.WebSales, specs, plan, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s %s @%s execute: %w", query, v.name, mem.Label, err)
			}
			fs, hs, ss := plan.ReorderCounts()
			res := SchemeResult{
				Query: query, Scheme: v.name, Mem: mem,
				Plan: plan.PaperString(), Elapsed: metrics.Elapsed,
				Blocks: metrics.TotalBlocks(), FS: fs, HS: hs, SS: ss,
			}
			out = append(out, res)
			fprintf(w, "%-8s  %12v  %10d  %d/%d/%d  %s\n",
				v.name, res.Elapsed.Round(time.Millisecond), res.Blocks, fs, hs, ss, res.Plan)
		}
	}
	return out, nil
}

// costParams builds cost-model inputs at a memory point.
func (d *Dataset) costParams(mem MemPoint) core.CostParams {
	p := d.Entry.CostParams(mem.Bytes(d.Cfg.BlockSize), d.Cfg.BlockSize)
	return p
}

// PrintPlans reproduces Tables 4, 6, 8 and 10: the chain each scheme
// generates for Q6–Q9 at each memory point.
func (d *Dataset) PrintPlans(w io.Writer) error {
	tables := map[string]string{"Q6": "4", "Q7": "6", "Q8": "8", "Q9": "10"}
	for _, query := range []string{"Q6", "Q7", "Q8", "Q9"} {
		specs, err := paperQuery(query)
		if err != nil {
			return err
		}
		ws := paper.WFs(specs)
		fprintf(w, "== Table %s: execution plans for %s ==\n", tables[query], query)
		for _, wf := range ws {
			fprintf(w, "  wf%d: WPK=%s WOK=%s\n", wf.ID+1, wf.PK, wf.OK)
		}
		for _, mem := range d.SchemeMemSweep() {
			fprintf(w, "-- M = %s --\n", mem.Label)
			for _, v := range variants(query) {
				plan, err := v.run(ws, core.Options{Cost: d.costParams(mem)})
				if err != nil {
					return err
				}
				fprintf(w, "  %-8s %s\n", v.name, plan.PaperString())
			}
		}
		fprintf(w, "\n")
	}
	return nil
}
