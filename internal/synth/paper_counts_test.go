package synth

import (
	"testing"

	"memsynth/internal/memmodel"
)

// TestPaperCounts pins every per-bound row of EXPERIMENTS.md's result
// tables (Figs. 13, 16 and 20, §6.4, and HSA): one run per model at its
// largest tabulated bound, then each row's per-axiom and union counts as
// the suite entries of at most that many events.
func TestPaperCounts(t *testing.T) {
	for _, tc := range []struct {
		model  string
		axioms []string      // table columns, before "union"
		rows   map[int][]int // bound -> counts per column, union last
	}{
		{"tso", []string{"causality", "rmw_atomicity", "sc_per_loc"}, map[int][]int{
			2: {1, 0, 3, 3},
			3: {3, 1, 7, 8},
			4: {10, 4, 10, 18},
			5: {18, 4, 10, 26},
			6: {41, 4, 10, 49},
		}},
		{"power", []string{"no_thin_air", "observation", "propagation", "rmw_atomicity", "sc_per_loc"}, map[int][]int{
			2: {0, 0, 0, 0, 3, 3},
			3: {0, 0, 0, 1, 7, 8},
			4: {6, 0, 0, 4, 10, 20},
		}},
		{"scc", []string{"causality", "no_thin_air", "rmw_atomicity", "sc_per_loc"}, map[int][]int{
			2: {0, 0, 0, 3, 3},
			3: {0, 0, 1, 7, 8},
			4: {3, 1, 4, 10, 18},
		}},
		{"c11", []string{"coherence", "no_thin_air", "rmw_atomicity", "sc"}, map[int][]int{
			2: {3, 1, 0, 0, 3},
			3: {7, 1, 1, 0, 8},
			4: {12, 2, 4, 3, 20},
		}},
		{"hsa", []string{"causality", "no_thin_air", "rmw_atomicity", "sc_per_loc"}, map[int][]int{
			2: {0, 0, 0, 3, 3},
			3: {0, 0, 2, 10, 12},
		}},
	} {
		m, err := memmodel.ByName(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		bound := 0
		for b := range tc.rows {
			bound = max(bound, b)
		}
		res := Synthesize(m, Options{MaxEvents: bound})
		if len(res.PerAxiom) != len(tc.axioms) {
			t.Errorf("%s: %d axiom suites, table has %d columns", tc.model, len(res.PerAxiom), len(tc.axioms))
		}
		suites := make([]*Suite, 0, len(tc.axioms)+1)
		for _, a := range tc.axioms {
			s, ok := res.PerAxiom[a]
			if !ok {
				t.Fatalf("%s: no %s suite", tc.model, a)
			}
			suites = append(suites, s)
		}
		suites = append(suites, res.Union)
		for b, want := range tc.rows {
			for i, s := range suites {
				if got := s.CountUpTo(b); got != want[i] {
					t.Errorf("%s ≤%d %s: %d tests, EXPERIMENTS.md says %d", tc.model, b, s.Axiom, got, want[i])
				}
			}
		}
	}
}
