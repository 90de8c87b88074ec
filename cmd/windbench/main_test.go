package main

import (
	"slices"
	"strings"
	"testing"
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
		{"all", names()},
		{"fig5", []string{"fig5"}},
		{"fig3, plans", []string{"fig3", "plans"}},
		{"plans,FIG3", []string{"fig3", "plans"}},
		{"nosuch", nil},
		{"fig3,nosuch", nil},
		{"", nil},
	} {
		chosen, err := choose(tc.arg)
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), strings.Join(names(), ", ")) {
				t.Errorf("choose(%q) = %v, want an error listing the valid names", tc.arg, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("choose(%q): %v", tc.arg, err)
			continue
		}
		var got []string
		for _, e := range chosen {
			got = append(got, e.name)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("choose(%q) = %v, want %v", tc.arg, got, tc.want)
		}
	}
}
