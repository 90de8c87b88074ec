package window_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/window"
)

// TestAllFunctionsAgainstReference holds the evaluator to the definition:
// the windows of generated statements, grouped by the kind of each
// statement's first window, over the statement's WHERE survivors arranged
// in the window's order. One Evaluator evaluates every one of them into a
// column, over partitions that grow and shrink from one window to the next,
// the stream form Evaluate into copies of the rows, and each value must be
// window.Reference's.
func TestAllFunctionsAgainstReference(t *testing.T) {
	cases, hit := gen.Cases(300), gen.Hits{}
	var ev window.Evaluator
	for kind := window.RowNumber; kind <= window.Max; kind++ {
		t.Run(kind.String(), func(t *testing.T) {
			led := 0
			for _, c := range cases {
				if len(c.Stmt.Windows) == 0 || c.Stmt.Windows[0].Kind != kind {
					continue
				}
				led++
				hit.Windows(c.Stmt)
				rows := c.Stmt.Input(c.Table)
				for _, w := range c.Stmt.Windows {
					if err := evaluate(&ev, rows, w); err != nil {
						t.Fatalf("%s, %s: %v\n%s", c.Name, w.Name, err, c.Stmt.SQL())
					}
				}
			}
			if led == 0 {
				t.Fatal("no generated statement leads with this kind")
			}
		})
	}
	hit.Require(t)
	if err := ev.EvaluateSlice(make([]storage.Tuple, 3), window.Spec{Kind: window.RowNumber}, make([]storage.Value, 2)); err == nil {
		t.Error("a column shorter than the rows must fail")
	}
}

// evaluate runs w over rows arranged in its order (PARTITION BY, then
// ORDER BY, ties in table order), into a column with ev and into copies of
// the rows with Evaluate, and compares both with window.Reference over the
// rows as they are.
func evaluate(ev *window.Evaluator, rows []storage.Tuple, w window.Spec) error {
	want, err := window.Reference(rows, w)
	if err != nil {
		return err
	}
	key := w.PK.AscSeq().Concat(w.OK)
	pos := make([]int, len(rows))
	for i := range pos {
		pos[i] = i
	}
	sort.SliceStable(pos, func(a, b int) bool { return storage.CompareSeq(rows[pos[a]], rows[pos[b]], key) < 0 })
	arranged, extended := make([]storage.Tuple, len(rows)), make([]storage.Tuple, len(rows))
	for i, p := range pos {
		arranged[i], extended[i] = rows[p], rows[p].Clone()
	}
	col := make([]storage.Value, len(rows))
	if err := ev.EvaluateSlice(arranged, w, col); err != nil {
		return err
	}
	out, err := window.Evaluate(stream.FromTuples(extended), w)
	if err != nil {
		return err
	}
	for i, p := range pos {
		r, _ := out.Next()
		if !gen.Same(col[i], want[p]) || !gen.Same(r.Tuple[len(rows[p])], want[p]) {
			return fmt.Errorf("row %v: column %s, extended %s, reference %s", rows[p], col[i], r.Tuple[len(rows[p])], want[p])
		}
	}
	return nil
}
