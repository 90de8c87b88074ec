package sql

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/attrs"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/storage"
)

// shippedStatement is what the shipped-plan tests run over shippedTable: a
// chain whose plan over a large table has a Hashed Sort, a Segmented Sort
// and a Full Sort to corrupt.
const shippedStatement = `SELECT g, u,
 rank() OVER (PARTITION BY g ORDER BY h) AS w1,
 dense_rank() OVER (PARTITION BY g ORDER BY u) AS w2,
 row_number() OVER (ORDER BY s, u) AS w3 FROM t`

// shippedTable is a node's tiny partition: 24 rows of gen's columns.
func shippedTable() *storage.Table {
	t := storage.NewTable(gen.Schema)
	for i := 0; i < 24; i++ {
		t.MustAppend(storage.Tuple{
			storage.Int(int64(i % 3)), storage.Int(int64(i % 5)), storage.Float(float64(i) / 2),
			storage.StringVal(string(rune('a' + i%4))), storage.Int(int64(i)),
		})
	}
	return t
}

// oneSegmentStatement is a one-segment chain over shippedTable: the plan of
// a scatter's zero-round stage.
const oneSegmentStatement = `SELECT g, u, rank() OVER (PARTITION BY g ORDER BY h) AS w1 FROM t`

// shippedPrepared prepares src on a node holding shippedTable, and returns
// it with the plan its coordinator ships: one made against the statistics
// of a table of a million rows.
func shippedPrepared(tb testing.TB, src string) (*Prepared, *core.Plan) {
	tb.Helper()
	table := shippedTable()
	cat, stub := catalog.New(), catalog.New()
	cat.Register("t", table)
	stub.RegisterStub("t", table.Schema, catalog.TableStats{
		Rows: 1 << 20, Bytes: 1 << 26,
		Distinct: func(set attrs.Set) int64 { return 1 << 14 },
	})
	var preps [2]*Prepared
	for i, c := range []*catalog.Catalog{cat, stub} {
		p, err := (&Runner{Catalog: c, Exec: exec.Config{MemoryBytes: 64 << 10}}).Prepare(src)
		if err != nil {
			tb.Fatal(err)
		}
		preps[i] = p
	}
	return preps[0], preps[1].Plan()
}

// shippedFaults corrupt a valid plan the ways a peer can: each must be
// refused with an error naming the fault.
var shippedFaults = []struct {
	name, want string
	corrupt    func(steps []core.Step) []core.Step
}{
	{"unknown reorder", "unknown reorder", func(s []core.Step) []core.Step { s[0].Reorder = 9; return s }},
	{"sort key column", "outside the base schema", func(s []core.Step) []core.Step {
		s[0].SortKey = append(s[0].SortKey, attrs.Asc(40))
		return s
	}},
	{"hash key column", "outside the base schema", func(s []core.Step) []core.Step { s[0].HashKey = s[0].HashKey.Add(33); return s }},
	{"alpha column", "outside the base schema", func(s []core.Step) []core.Step { s[1].Alpha = attrs.Seq{{Attr: -1}}; return s }},
	{"beta column", "outside the base schema", func(s []core.Step) []core.Step { s[1].Beta = attrs.AscSeq(5); return s }},
	{"input", "input", func(s []core.Step) []core.Step { s[1].In = core.Unordered(); return s }},
	{"output", "output", func(s []core.Step) []core.Step { s[0].Out.Grouped = !s[0].Out.Grouped; return s }},
	{"step count", "steps for", func(s []core.Step) []core.Step { return s[:len(s)-1] }},
	{"duplicate wf", "twice", func(s []core.Step) []core.Step { s[1].WF = s[0].WF; return s }},
	{"foreign wf", "not", func(s []core.Step) []core.Step { s[0].WF.OK = nil; return s }},
}

// corrupted returns plan with one fault applied to a deep copy of it.
func corrupted(tb testing.TB, plan *core.Plan, corrupt func([]core.Step) []core.Step) *core.Plan {
	tb.Helper()
	var out core.Plan
	buf, err := json.Marshal(plan)
	if err != nil {
		tb.Fatal(err)
	}
	if err := json.Unmarshal(buf, &out); err != nil {
		tb.Fatal(err)
	}
	out.Steps = corrupt(out.Steps)
	return &out
}

// TestShippedPlanFaults: a node checks the plan a coordinator ships before
// it runs a step of it. The plan survives the wire intact, and every way a
// peer can get it wrong — no plan for a statement with window functions, an
// unknown reorder kind, a column outside the base schema, a step whose
// recorded properties are not the replay's, a step too few, a function
// twice or not the statement's — is an error. Only a window-less statement
// binds no plan.
func TestShippedPlanFaults(t *testing.T) {
	p, plan := shippedPrepared(t, shippedStatement)
	if fs, hs, ss := plan.ReorderCounts(); fs == 0 || hs == 0 || ss == 0 {
		t.Fatalf("plan %s: the faults need an FS, an HS and an SS step", plan)
	}
	bound, err := p.Bind(corrupted(t, plan, func(s []core.Step) []core.Step { return s }))
	if err != nil {
		t.Fatalf("the plan does not survive the wire: %v", err)
	}
	if got, want := bound.Plan().String(), plan.String(); got != want {
		t.Fatalf("bound plan %s, shipped %s", got, want)
	}
	if _, err := p.Bind(nil); err == nil {
		t.Error("a missing plan was accepted")
	}
	for _, f := range shippedFaults {
		_, err := p.Bind(corrupted(t, plan, f.corrupt))
		if err == nil || !strings.Contains(err.Error(), f.want) {
			t.Errorf("%s: error %v, want one naming %q", f.name, err, f.want)
		}
	}
	windowless, err := (&Runner{Catalog: p.cat}).Prepare(`SELECT g FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := windowless.Bind(nil); err != nil {
		t.Errorf("a window-less statement refused no plan: %v", err)
	}
	if _, err := windowless.Bind(plan); err == nil {
		t.Error("a window-less statement accepted a plan")
	}
}

// FuzzShippedPlan decodes arbitrary JSON into the plan a node is shipped,
// binds it onto a three-window statement and a one-window one, and runs
// what binds on a tiny table — the first segment of a plan that shuffles,
// the whole statement over the node's partition when there is one segment:
// a plan off the network is refused with an error or runs, and never
// panics the node. Seeds: the three-window plan and each of shippedFaults,
// a one-segment plan, and no plan at all, which neither statement accepts.
func FuzzShippedPlan(f *testing.F) {
	p, plan := shippedPrepared(f, shippedStatement)
	one, onePlan := shippedPrepared(f, oneSegmentStatement)
	seed := func(plan *core.Plan) {
		buf, err := json.Marshal(plan)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	seed(plan)
	for _, fault := range shippedFaults {
		seed(corrupted(f, plan, fault.corrupt))
	}
	seed(onePlan)
	seed(nil)
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte) {
		var plan *core.Plan
		if json.Unmarshal(data, &plan) != nil {
			return
		}
		for _, p := range []*Prepared{p, one} {
			b, err := p.Bind(plan)
			if plan == nil && err == nil {
				t.Fatal("a statement with window functions bound no plan")
			}
			if err != nil {
				continue
			}
			if r := b.Segments(); r.Segments() > 1 {
				var in *storage.Table
				if in, err = r.FilterBase(ctx); err == nil {
					var c *exec.Chain
					if c, _, err = r.Run(ctx, 0, in); err == nil {
						c.Release()
					}
				}
			} else {
				var c *Cursor
				if c, err = b.Open(ctx, Input{}, true); err == nil {
					drainCursor(t, c)
				}
			}
			if err != nil {
				t.Fatalf("an accepted plan failed to run: %v\n%s", err, data)
			}
		}
	})
}
