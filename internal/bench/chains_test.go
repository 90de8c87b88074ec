package bench

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/paper"
	"repro/internal/sql"
)

// chainsPath is the committed table TestChainsGolden holds every chain to.
const chainsPath = "testdata/chains.golden"

// writeChain renders plan one step a line: kind, function, sort key, hash
// key, α, β and the stream property in and out.
func writeChain(b *strings.Builder, head string, plan *core.Plan, err error) {
	if err != nil {
		fmt.Fprintf(b, "%s\terror: %v\n", head, err)
		return
	}
	fmt.Fprintf(b, "%s\t%s\n", head, plan)
	for _, s := range plan.Steps {
		fmt.Fprintf(b, "\t%s wf%d key=%s hash=%s α=%s β=%s in=%s out=%s\n",
			s.Reorder, s.WF.ID, s.SortKey, s.HashKey, s.Alpha, s.Beta, s.In, s.Out)
	}
}

// chainSchemes are the runners the statements are planned with: every
// scheme, CSO's two ablations, and CSO at a parallel degree (where sql
// falls back from an aligned chain that concatenates).
var chainSchemes = []struct {
	name string
	r    sql.Runner
}{
	{"BFO", sql.Runner{Scheme: sql.SchemeBFO}},
	{"CSO", sql.Runner{}},
	{"CSO(v1)", sql.Runner{DisableHS: true}},
	{"CSO(v2)", sql.Runner{DisableSS: true}},
	{"CSO|p3", sql.Runner{Exec: exec.Config{Parallelism: 3}}},
	{"ORCL", sql.Runner{Scheme: sql.SchemeORCL}},
	{"PSQL", sql.Runner{Scheme: sql.SchemePSQL}},
}

// chains renders every chain the table pins: Table 11's random function
// lists under every generator (and CSO aligned toward each function's own
// key, Section 5's reshuffle), then Q1–Q9 and F1–F6 prepared under every
// scheme at the three scheme memory points.
func chains(t *testing.T) string {
	var b strings.Builder
	b.WriteString("# Every step of the chains the generators build, one step a line under its\n")
	b.WriteString("# chain: kind, function, sort key, hash key, α, β, and the stream property\n")
	b.WriteString("# before and after. Regenerate with `go test ./internal/bench -run\n")
	b.WriteString("# TestChainsGolden -update` and review the diff.\n")
	opt := core.Options{Cost: paper.PaperStats()}
	for n := 6; n <= 10; n++ {
		rng := rand.New(rand.NewSource(int64(1000 + n)))
		for i := 0; i < 5; i++ {
			ws := randomQuery(rng, n)
			var fs []string
			for _, wf := range ws {
				fs = append(fs, wf.String())
			}
			fmt.Fprintf(&b, "table11 n=%d #%d: %s\n", n, i, strings.Join(fs, " "))
			for _, g := range core.Generators {
				plan, err := g.Plan(ws, core.Unordered(), opt, nil)
				writeChain(&b, g.Scheme, plan, err)
			}
			for _, v := range []struct {
				name string
				opt  core.Options
			}{{"CSO(v1)", core.Options{Cost: opt.Cost, DisableHS: true}}, {"CSO(v2)", core.Options{Cost: opt.Cost, DisableSS: true}}} {
				plan, err := core.CSO(ws, core.Unordered(), v.opt)
				writeChain(&b, v.name, plan, err)
			}
			for _, wf := range ws {
				order := wf.PKSeqWritten().Concat(wf.OK)
				plan, err := core.CSOAligned(ws, core.Unordered(), opt, order)
				writeChain(&b, "CSOAligned"+order.String(), plan, err)
			}
		}
	}

	d := dataset()
	cat := catalog.New()
	cat.Register("web_sales", d.WebSales)
	cat.Register("web_sales_s", d.WebSalesS)
	cat.Register("web_sales_g", d.WebSalesG)
	names := []string{"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "F1", "F2", "F3", "F4", "F5", "F6"}
	for _, mem := range d.SchemeMemSweep() {
		for _, s := range chainSchemes {
			r := s.r
			r.Catalog = cat
			r.Exec.MemoryBytes, r.Exec.BlockSize, r.Exec.Parallelism = mem.Bytes(d.Cfg.BlockSize), d.Cfg.BlockSize, max(r.Exec.Parallelism, 1)
			for _, q := range names {
				p, err := r.Prepare(paper.Statements[q])
				if err != nil {
					t.Fatalf("%s %s @%s: %v", q, s.name, mem.Label, err)
				}
				writeChain(&b, fmt.Sprintf("%s %s @%s=%d", q, s.name, mem.Label, mem.Blocks), p.Plan(), nil)
			}
		}
	}
	return b.String()
}

// TestChainsGolden — every step the generators build, its keys, split and
// stream properties, is the committed table's, line for line: a refactor
// of the planners must leave this file as it is.
func TestChainsGolden(t *testing.T) {
	got := chains(t)
	if *update {
		if err := os.WriteFile(chainsPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(chainsPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i, bad := 0, 0; i < max(len(gotLines), len(wantLines)) && bad < 20; i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s:%d\n got: %s\nwant: %s", chainsPath, i+1, g, w)
			bad++
		}
	}
}
