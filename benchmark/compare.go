package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one workload × metric row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// row is one line of the comparison: a workload's metric on both sides.
type row struct {
	Workload, Metric, Unit string
	Bound                  float64
	A, B                   [3]float64 // first quartile, median, third quartile
	Worse                  float64    // share of A's median by which B is worse (negative: better)
	Spread                 float64    // the wider side's quartile distance over its median
	Verdict                string
}

// judgeRow decides a row from each side's values of one metric. B is
// regressed when its median is worse than A's by more than the bound
// (any worsening at all when the bound is zero). Otherwise, when either
// side's own runs spread wider than the bound, the runs cannot show that
// nothing changed and the row is unresolved, not ok.
func judgeRow(spec metricSpec, a, b []float64) row {
	r := row{Metric: spec.Name, Unit: spec.Unit, Bound: spec.Bound}
	r.A[0], r.A[1], r.A[2] = quartiles(a)
	r.B[0], r.B[1], r.B[2] = quartiles(b)
	diff := r.B[1] - r.A[1]
	if spec.Better == higher {
		diff = -diff
	}
	switch {
	case r.A[1] != 0:
		r.Worse = diff / math.Abs(r.A[1])
	case diff > 0:
		r.Worse = 1 // from zero to something: as bad as it gets
	}
	for _, q := range [][3]float64{r.A, r.B} {
		if q[1] != 0 {
			r.Spread = max(r.Spread, (q[2]-q[0])/math.Abs(q[1]))
		}
	}
	switch {
	case r.Worse > spec.Bound:
		r.Verdict = verdictRegressed
	case r.Spread > spec.Bound && spec.Bound > 0:
		r.Verdict = verdictUnresolved
	default:
		r.Verdict = verdictOK
	}
	return r
}

// checkComparable refuses pairs of outputs that did not measure the same thing:
// run i of each side must have used the same fixture (content hash), and
// both sides the same core count and workload sizes.
func checkComparable(a, b []*result) error {
	if len(a) == 0 || len(b) == 0 {
		return fmt.Errorf("a side has no timed runs")
	}
	if a[0].Env.NProc != b[0].Env.NProc || a[0].Env.GOMAXPROCS != b[0].Env.GOMAXPROCS {
		return fmt.Errorf("nproc/GOMAXPROCS differ: %d/%d vs %d/%d", a[0].Env.NProc, a[0].Env.GOMAXPROCS, b[0].Env.NProc, b[0].Env.GOMAXPROCS)
	}
	if len(a) != len(b) {
		return fmt.Errorf("%d runs vs %d runs", len(a), len(b))
	}
	for i := range a {
		if a[i].Sizes != b[i].Sizes {
			return fmt.Errorf("run %d: workload sizes differ: %+v vs %+v", i, a[i].Sizes, b[i].Sizes)
		}
		if a[i].Fixture != b[i].Fixture {
			return fmt.Errorf("run %d: fixtures differ: %d rows %s vs %d rows %s", i,
				a[i].Fixture.Rows, a[i].Fixture.Hash, b[i].Fixture.Rows, b[i].Fixture.Hash)
		}
	}
	return nil
}

// compareSets builds every workload × end-to-end metric row. A metric that
// has no samples on a workload (appends where nothing appends) is skipped.
func compareSets(a, b *resultSet) ([]row, error) {
	timed := func(set *resultSet, workload string) []*result {
		var out []*result
		for _, r := range set.Runs {
			if r.Workload == workload && !r.Traced {
				out = append(out, r)
			}
		}
		return out
	}
	var rows []row
	for _, w := range workloadSpecs {
		ra, rb := timed(a, w.Name), timed(b, w.Name)
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		if err := checkComparable(ra, rb); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		for _, spec := range append(append([]metricSpec{}, endToEnd...), extended...) {
			var va, vb []float64
			samples := 0
			for i := range ra {
				ma, mb := ra[i].Metrics[spec.Name], rb[i].Metrics[spec.Name]
				va, vb = append(va, ma.Value), append(vb, mb.Value)
				samples += ma.N + mb.N
			}
			if samples == 0 {
				continue
			}
			r := judgeRow(spec, va, vb)
			r.Workload = w.Name
			rows = append(rows, r)
		}
	}
	return rows, nil
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := &resultSet{}
	if err := json.Unmarshal(data, set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

func printRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-17s %-19s %-6s %36s %36s %7s %8s %7s  %s\n",
		"workload", "metric", "unit", "A q1 / median / q3", "B q1 / median / q3", "bound", "worse", "spread", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-17s %-19s %-6s %11.4g /%11.4g /%11.4g %11.4g /%11.4g /%11.4g %6.1f%% %+7.1f%% %6.1f%%  %s\n",
			r.Workload, r.Metric, r.Unit, r.A[0], r.A[1], r.A[2], r.B[0], r.B[1], r.B[2],
			r.Bound*100, r.Worse*100, r.Spread*100, r.Verdict)
	}
}

// compareMain is `benchmark compare A.json B.json`: exit 0 when every row
// is ok, 1 when any is regressed or unresolved, 2 when the two outputs
// cannot be compared.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	a, err := readSet(args[0])
	if err != nil {
		return fail(err)
	}
	b, err := readSet(args[1])
	if err != nil {
		return fail(err)
	}
	rows, err := compareSets(a, b)
	if err != nil {
		return fail(err)
	}
	printRows(os.Stdout, rows)
	for _, r := range rows {
		if r.Verdict != verdictOK {
			return 1
		}
	}
	return 0
}
