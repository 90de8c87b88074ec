package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/attrs"
	"repro/internal/core"
	"repro/internal/paper"
)

// randomQuery draws window functions over the five web_sales attributes of
// Table 2, mirroring Section 6.3 ("we randomly determined the number of
// attributes as well as the attributes themselves for both WPK and WOK").
func randomQuery(rng *rand.Rand, n int) []core.WF {
	attrPool := []attrs.ID{paper.Date, paper.Item, paper.Time, paper.Bill, paper.Ship}
	ws := make([]core.WF, n)
	for i := range ws {
		var pk attrs.Set
		npk := rng.Intn(4)
		for pk.Len() < npk {
			pk = pk.Add(attrPool[rng.Intn(len(attrPool))])
		}
		var ok attrs.Seq
		var used attrs.Set
		nok := rng.Intn(3)
		for len(ok) < nok {
			a := attrPool[rng.Intn(len(attrPool))]
			if pk.Contains(a) || used.Contains(a) {
				break
			}
			used = used.Add(a)
			ok = append(ok, attrs.Asc(a))
		}
		if pk.Empty() && len(ok) == 0 {
			ok = attrs.AscSeq(attrPool[rng.Intn(len(attrPool))])
		}
		ws[i] = core.WF{ID: i, PK: pk, OK: ok, PKOrder: pk.AscSeq()}
	}
	return ws
}

// overheadSchemes are Table 11's columns, each planning a function list
// with the paper's statistics.
var overheadSchemes = []struct {
	name string
	plan func([]core.WF, core.Options) (*core.Plan, error)
}{
	{"BFO", func(ws []core.WF, opt core.Options) (*core.Plan, error) { return core.BFO(ws, core.Unordered(), opt) }},
	{"CSO", func(ws []core.WF, opt core.Options) (*core.Plan, error) { return core.CSO(ws, core.Unordered(), opt) }},
	{"ORCL", func(ws []core.WF, opt core.Options) (*core.Plan, error) { return core.ORCL(ws, core.Unordered(), opt) }},
	{"PSQL", func(ws []core.WF, _ core.Options) (*core.Plan, error) { return core.PSQL(ws, core.Unordered()) }},
}

// RunTable11 reproduces Table 11: the optimization time of every scheme on
// queries random queries for each of 6–10 window functions, one row per
// query and scheme (Query is the function count). These rows time the
// planners alone — no statement, table or engine — so they are the only
// ones that call the plan generators directly.
//
// Honesty note: our BFO is a memoized dynamic program over (evaluated-set,
// ordering-property) states, strictly stronger than the paper's plain
// enumeration, so its absolute overheads are far smaller than the paper's
// (which reached 2.7 hours at 10 functions); the exponential growth
// relative to CSO's near-linear overhead — the conclusion Table 11
// supports — is preserved.
func RunTable11(queries int) ([]Row, error) {
	if queries <= 0 {
		queries = 5
	}
	opt := core.Options{Cost: paper.PaperStats()}
	var out []Row
	for n := 6; n <= 10; n++ {
		rng := rand.New(rand.NewSource(int64(1000 + n)))
		qs := make([][]core.WF, queries)
		for i := range qs {
			qs[i] = randomQuery(rng, n)
		}
		for _, s := range overheadSchemes {
			for _, ws := range qs {
				start := time.Now()
				if _, err := s.plan(ws, opt); err != nil {
					return nil, err
				}
				out = append(out, Row{Exp: "table11", Query: fmt.Sprint(n), Variant: s.name, Elapsed: time.Since(start)})
			}
		}
	}
	return out, nil
}
