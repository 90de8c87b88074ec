package gen

import (
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/attrs"
	"repro/internal/storage"
	"repro/internal/window"
)

var sweep = flag.Bool("long", false, "run about 15 times as many seeds in the generated tests")

// Seeds returns how many seeds a generated test runs: n, or 15n under -long.
func Seeds(n int) int {
	if *sweep {
		return 15 * n
	}
	return n
}

// Case is one statement over one table.
type Case struct {
	Name  string
	Table *storage.Table
	Stmt  *Statement
}

// Generate draws seed's table and a statement over it, as table "t".
func Generate(seed int64) Case {
	rng := rand.New(rand.NewSource(seed))
	t := NewTable(rng)
	return Case{fmt.Sprintf("seed %d", seed), t, NewStatement(rng, "t", t.Len())}
}

// Cases returns the Regressions, then the cases of seeds 1 to Seeds(n).
func Cases(n int) []Case {
	cases := Regressions()
	for seed := range Seeds(n) {
		cases = append(cases, Generate(int64(seed+1)))
	}
	return cases
}

// Input returns the rows of t the statement's WHERE keeps, in table order.
func (s *Statement) Input(t *storage.Table) []storage.Tuple {
	var in []storage.Tuple
	for _, r := range t.Rows {
		if s.Where == nil || s.Where.Keep(r) {
			in = append(in, r)
		}
	}
	return in
}

// Project is the oracle up to the projection: window.Reference per window
// over the WHERE survivors, then the select list, in table order.
func (s *Statement) Project(t *storage.Table) ([]storage.Tuple, error) {
	in := s.Input(t)
	vals := make([][]storage.Value, len(s.Windows))
	for k, w := range s.Windows {
		var err error
		if vals[k], err = window.Reference(in, w); err != nil {
			return nil, err
		}
	}
	out := make([]storage.Tuple, len(in))
	for i, r := range in {
		for _, c := range s.Cols {
			out[i] = append(out[i], r[c])
		}
		for k := range s.Windows {
			out[i] = append(out[i], vals[k][i])
		}
	}
	return out, nil
}

// Finalize is the finalize oracle as the SQL text reads: DISTINCT keeping
// first occurrences, a stable sort on the ORDER BY, then LIMIT.
func (s *Statement) Finalize(rows []storage.Tuple) []storage.Tuple {
	out := slices.Clone(rows)
	if s.Distinct {
		seen := map[string]bool{}
		out = slices.DeleteFunc(out, func(r storage.Tuple) bool {
			k := key(r)
			dup := seen[k]
			seen[k] = true
			return dup
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return storage.CompareSeq(out[i], out[j], s.OrderBy) < 0 })
	if s.Limit >= 0 && int64(len(out)) > s.Limit {
		out = out[:s.Limit]
	}
	return out
}

// Chain returns the statement cut down to what a window chain computes:
// every base column, then the windows, over the WHERE survivors, with no
// DISTINCT, ORDER BY or LIMIT.
func (s *Statement) Chain() *Statement {
	c := *s
	c.Cols, c.Distinct, c.OrderBy, c.Limit = nil, false, nil, -1
	for a := range s.Schema.Len() {
		c.Cols = append(c.Cols, attrs.ID(a))
	}
	return &c
}

// Check holds got, the statement's output, to the oracle's over projected
// (Project's rows): as a sequence when the ORDER BY is total over the
// output — rows that tie on it are one row —, as a multiset when there is
// no LIMIT, and otherwise as the oracle's ORDER BY key sequence made of a
// sub-multiset of the rows the LIMIT chose from.
func (s *Statement) Check(got, projected []storage.Tuple) error {
	unlimited := *s
	unlimited.Limit = -1
	all := unlimited.Finalize(projected)
	want := all
	if s.Limit >= 0 && int64(len(all)) > s.Limit {
		want = all[:s.Limit]
	}
	total := true
	for i := 1; i < len(all) && total; i++ {
		total = storage.CompareSeq(all[i-1], all[i], s.OrderBy) != 0 || key(all[i-1]) == key(all[i])
	}
	switch {
	case total:
		return sequence(got, want, func(r, w storage.Tuple) bool { return key(r) == key(w) })
	case s.Limit < 0:
		return SameMultiset(got, want)
	case len(got) != len(want):
		return fmt.Errorf("%d rows, the oracle has %d", len(got), len(want))
	}
	for i := range want {
		if storage.CompareSeq(got[i], want[i], s.OrderBy) != 0 {
			return fmt.Errorf("row %d = %v, the oracle has %v on the ORDER BY", i, got[i], want[i])
		}
	}
	return within(got, all)
}

// Same reports whether two values are one value: the same kind and equal,
// the two float zeros one, as every comparison the engine makes has them.
func Same(v, w storage.Value) bool { return v.Kind() == w.Kind() && storage.Equal(v, w) }

// key encodes a row with Same's equality.
func key(r storage.Tuple) string {
	var b []byte
	for _, v := range r {
		if v.Kind() == storage.KindFloat && v.Float64() == 0 {
			v = storage.Float(0)
		}
		b = storage.AppendTuple(b, storage.Tuple{v})
	}
	return string(b)
}

// IdenticalSequence reports how got differs from want as a sequence of
// rows whose values are storage.Identical, so the two float zeros differ:
// what finalize is held to against the finalize oracle over the same
// execution's rows, where DISTINCT must keep the first occurrence's sign.
func IdenticalSequence(got, want []storage.Tuple) error {
	return sequence(got, want, func(r, w storage.Tuple) bool { return slices.EqualFunc(r, w, storage.Identical) })
}

// sequence reports how got differs from want as a sequence of rows, same
// deciding whether two rows are one.
func sequence(got, want []storage.Tuple, same func(r, w storage.Tuple) bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, the oracle has %d", len(got), len(want))
	}
	for i := range want {
		if !same(got[i], want[i]) {
			return fmt.Errorf("row %d = %v, the oracle has %v", i, got[i], want[i])
		}
	}
	return nil
}

// SameMultiset reports how got differs from want as a multiset of rows.
func SameMultiset(got, want []storage.Tuple) error {
	if err := within(got, want); err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, the oracle has %d", len(got), len(want))
	}
	return nil
}

// within reports a row of got that want does not have as often.
func within(got, want []storage.Tuple) error {
	left := map[string]int{}
	for _, r := range want {
		left[key(r)]++
	}
	for _, r := range got {
		if left[key(r)]--; left[key(r)] < 0 {
			return fmt.Errorf("row %v is not the oracle's, or not that often", r)
		}
	}
	return nil
}

// Hits counts what the cases of one generated test reached.
type Hits map[string]int

// Windows counts the kinds of s's windows and the bound types of their
// frames.
func (h Hits) Windows(s *Statement) {
	for _, w := range s.Windows {
		h[w.Kind.String()]++
		if w.Kind >= window.FirstValue {
			f := w.EffectiveFrame()
			h[boundSQL[f.Start.Type]]++
			h[boundSQL[f.End.Type]]++
		}
	}
}

// Require fails t unless every window kind, every frame bound type and each
// of paths was reached, and logs the counts.
func (h Hits) Require(t testing.TB, paths ...string) {
	t.Helper()
	for k := window.RowNumber; k <= window.Max; k++ {
		paths = append(paths, k.String())
	}
	for _, p := range append(paths, boundSQL[:]...) {
		if h[p] == 0 {
			t.Errorf("no generated case reached %q", p)
		}
	}
	t.Logf("reached: %v", map[string]int(h))
}
