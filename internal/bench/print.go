package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro"
	"repro/internal/paper"
)

// Print writes one experiment's rows as the paper's table or figure
// series. d is the dataset they were measured on; Table 11's rows need
// none.
func Print(w io.Writer, d *Dataset, exp string, rows []Row) error {
	ms := func(r Row) time.Duration { return r.Elapsed.Round(time.Millisecond) }
	switch exp {
	case "fig3":
		fmt.Fprintf(w, "== Figure 3: micro-benchmark part 1, FS vs HS (web_sales, %d rows, B=%d blocks) ==\n", d.Cfg.Rows, d.Blocks)
		for _, g := range groups(rows, func(r Row) string { return r.Query }) {
			q := microQuery(g[0].Query)
			fmt.Fprintf(w, "\n-- %s: rank() OVER (PARTITION BY %s ORDER BY %s) -- %s\n", q.Name, q.Spec.PK, q.Spec.OK, q.Comment)
			fmt.Fprintf(w, "%-8s  %12s  %12s  %10s  %10s\n", "M", "FS time", "HS time", "FS blocks", "HS blocks")
			for _, m := range groups(g, func(r Row) string { return r.Mem.Label }) {
				fmt.Fprintf(w, "%-8s  %12v  %12v  %10d  %10d\n", m[0].Mem.Label, ms(m[0]), ms(m[1]), m[0].Blocks, m[1].Blocks)
			}
		}
	case "fig4":
		fmt.Fprintf(w, "== Figure 4: micro-benchmark part 2, SS vs FS and HS ==\n")
		for _, g := range groups(rows, func(r Row) string { return r.Query }) {
			q := microQuery(g[0].Query)
			fmt.Fprintf(w, "\n-- %s on %s: rank() OVER (PARTITION BY %s ORDER BY %s) -- %s\n", q.Name, q.Table, q.Spec.PK, q.Spec.OK, q.Comment)
			fmt.Fprintf(w, "%-8s  %12s  %12s  %12s  %10s  %10s  %10s\n", "M", "FS time", "HS time", "SS time", "FS blk", "HS blk", "SS blk")
			for _, m := range groups(g, func(r Row) string { return r.Mem.Label }) {
				fmt.Fprintf(w, "%-8s  %12v  %12v  %12v  %10d  %10d  %10d\n", m[0].Mem.Label,
					ms(m[0]), ms(m[1]), ms(m[2]), m[0].Blocks, m[1].Blocks, m[2].Blocks)
			}
		}
	case "plans":
		tables := map[string]string{"Q6": "4", "Q7": "6", "Q8": "8", "Q9": "10"}
		for _, g := range groups(rows, func(r Row) string { return r.Query }) {
			fmt.Fprintf(w, "== Table %s: execution plans for %s ==\n", tables[g[0].Query], g[0].Query)
			p, err := d.engine(windowdb.Config{}, g[0].Mem).Prepare(paper.Statements[g[0].Query])
			if err != nil {
				return err
			}
			for _, wf := range p.WFs() {
				fmt.Fprintf(w, "  wf%d: WPK=%s WOK=%s\n", wf.ID+1, wf.PK, wf.OK)
			}
			for _, m := range groups(g, func(r Row) string { return r.Mem.Label }) {
				fmt.Fprintf(w, "-- M = %s --\n", m[0].Mem.Label)
				for _, r := range m {
					fmt.Fprintf(w, "  %-8s %s\n", r.Variant, r.Plan)
				}
			}
			fmt.Fprintf(w, "\n")
		}
	case "fig5", "fig6", "fig7", "fig8":
		query := figures[exp]
		fmt.Fprintf(w, "== Figure %s: %s with %d window functions (web_sales, %d rows) ==\n",
			exp[3:], query, strings.Count(rows[0].Plan, "wf"), d.Cfg.Rows)
		for _, m := range groups(rows, func(r Row) string { return r.Mem.Label }) {
			fmt.Fprintf(w, "\n-- unit reorder memory %s (%d blocks) --\n", m[0].Mem.Label, m[0].Mem.Blocks)
			fmt.Fprintf(w, "%-8s  %12s  %10s  %-6s  %s\n", "scheme", "time", "blocks", "FS/HS/SS", "plan")
			for _, r := range m {
				fmt.Fprintf(w, "%-8s  %12v  %10d  %d/%d/%d  %s\n", r.Variant, ms(r), r.Blocks,
					strings.Count(r.Plan, "--FS-->"), strings.Count(r.Plan, "--HS-->"), strings.Count(r.Plan, "--SS-->"), r.Plan)
			}
		}
	case "table11":
		byN := groups(rows, func(r Row) string { return r.Query })
		schemes := groups(byN[0], func(r Row) string { return r.Variant })
		fmt.Fprintf(w, "== Table 11: optimization overheads (ms, avg of %d random queries) ==\n", len(schemes[0]))
		fmt.Fprintf(w, "%-8s", "#wfs")
		for _, s := range schemes {
			fmt.Fprintf(w, "  %12s", s[0].Variant)
		}
		fmt.Fprintf(w, "\n")
		for _, g := range byN {
			fmt.Fprintf(w, "%-8s", g[0].Query)
			for _, s := range groups(g, func(r Row) string { return r.Variant }) {
				var sum time.Duration
				for _, r := range s {
					sum += r.Elapsed
				}
				fmt.Fprintf(w, "  %12.3f", float64(sum)/float64(len(s))/float64(time.Millisecond))
			}
			fmt.Fprintf(w, "\n")
		}
	case "ablation":
		for _, g := range groups(rows, func(r Row) string { return r.Query }) {
			switch g[0].Query {
			case "bucket-count":
				fmt.Fprintf(w, "== Ablation 1: HS bucket count (Q1 @ %s) ==\n", g[0].Mem.Label)
			case "mfv-bypass":
				fmt.Fprintf(w, "== Ablation 2: HS most-frequent-value bypass (Q3 @ %s) ==\n", g[0].Mem.Label)
			case "ss-alpha":
				fmt.Fprintf(w, "== Ablation 3: SS α choice (web_sales sorted on (quantity,item)) ==\n")
			}
			for _, r := range g {
				fmt.Fprintf(w, "  %-28s  %12v  %10d blk  %12d cmp  %s\n", r.Variant, ms(r), r.Blocks, r.Comparisons, r.Detail)
			}
		}
	case "parallel":
		fmt.Fprintf(w, "== Parallel multi-window execution: Q6 via CSO (%s), web_sales %d rows, M = %s ==\n",
			rows[0].Plan, d.Cfg.Rows, rows[0].Mem.Label)
		fmt.Fprintf(w, "%-8s  %12s  %10s  %8s\n", "degree", "time", "blocks", "speedup")
		for _, r := range rows {
			fmt.Fprintf(w, "%-8s  %12v  %10d  %7.2fx\n", r.Variant, ms(r), r.Blocks, ratio(rows[0], r))
		}
	case "sharded":
		fmt.Fprintf(w, "== Sharded cluster execution: Q6 scatter over in-process shards, web_sales %d rows, M = %s ==\n",
			d.Cfg.Rows, rows[0].Mem.Label)
		fmt.Fprintf(w, "%-10s  %12s  %10s  %9s\n", "shards", "time", "blocks", "scaleout")
		for _, r := range rows {
			note := ""
			if r.Variant == "2/http" {
				note = "   (2 shards over HTTP, incl. wire codec)"
			}
			fmt.Fprintf(w, "%-10s  %12v  %10d  %8.2fx%s\n", r.Variant, ms(r), r.Blocks, ratio(rows[0], r), note)
		}
	}
	return nil
}

// groups splits rows into runs of equal key, in order.
func groups(rows []Row, key func(Row) string) [][]Row {
	var out [][]Row
	for i, r := range rows {
		if i == 0 || key(r) != key(rows[i-1]) {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], r)
	}
	return out
}

// ratio is how many times faster r ran than base: a speedup or scaleout.
func ratio(base, r Row) float64 { return float64(base.Elapsed) / float64(r.Elapsed) }

// microQuery is the Table 1 query of that name.
func microQuery(name string) paper.MicroQuery {
	for _, q := range paper.MicroQueries() {
		if q.Name == name {
			return q
		}
	}
	return paper.MicroQuery{Name: name}
}
