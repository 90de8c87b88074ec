package main

import (
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestChoose — -exp resolves against the experiment table: "all" is the
// table in its own order, a list comes back in table order whatever order
// it was typed in, and a name the table lacks is an error naming the
// valid ones.
func TestChoose(t *testing.T) {
	for _, tc := range []struct {
		arg  string
		want []string // nil = error
	}{
		{"all", experiments},
		{"fig5", []string{"fig5"}},
		{"fig3, plans", []string{"fig3", "plans"}},
		{"plans,FIG3", []string{"fig3", "plans"}},
		{"nosuch", nil},
		{"fig3,nosuch", nil},
		{"", nil},
	} {
		chosen, err := choose(tc.arg)
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), strings.Join(experiments, ", ")) {
				t.Errorf("choose(%q) = %v, want an error listing the valid names", tc.arg, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("choose(%q): %v", tc.arg, err)
			continue
		}
		if !slices.Equal(chosen, tc.want) {
			t.Errorf("choose(%q) = %v, want %v", tc.arg, chosen, tc.want)
		}
	}
}

// TestEveryExperimentRuns — every -exp name measures and prints at a small
// scale without an error or a panic.
func TestEveryExperimentRuns(t *testing.T) {
	r := &run{cfg: bench.Config{Rows: 2000}, queries: 1, out: io.Discard}
	for _, name := range experiments {
		if err := r.execute(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
