package admit_test

import (
	"testing"

	"memsynth/internal/admit"
	"memsynth/internal/canon"
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/synth"
)

// TestWarmBindDecideAllocs: once a Checker has bound every program of a
// fixed set, binding them again and deciding their rf assignments
// allocates nothing — its per-application contexts, and the graphs in
// them, are rebound in place.
func TestWarmBindDecideAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, name := range []string{"tso", "power"} {
		t.Run(name, func(t *testing.T) {
			m, err := memmodel.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			type program struct {
				t    *litmus.Test
				apps []exec.Perturb
				rfs  [][]int
				cos  [][][]int
			}
			var progs []program
			seen := make(map[string]bool)
			err = synth.EnumeratePrograms(m.Vocab(), synth.Options{MaxEvents: 4}, func(tt *litmus.Test) bool {
				key := canon.ProgramKey(tt)
				if seen[key] || len(tt.Events) < 3 {
					return true
				}
				seen[key] = true
				p := program{t: tt, apps: memmodel.Applications(m, tt)}
				exec.Enumerate(tt, exec.EnumerateOptions{}, func(x *exec.Execution) bool {
					x = x.Clone()
					p.rfs, p.cos = append(p.rfs, x.RF), append(p.cos, x.CO)
					return true
				})
				progs = append(progs, p)
				return len(progs) < 60
			})
			if err != nil {
				t.Fatal(err)
			}
			adm := admit.NewChecker(m)
			run := func() {
				for _, p := range progs {
					adm.Bind(p.t, p.apps)
					for i, rf := range p.rfs {
						if adm.Decide(rf) {
							adm.Extends(p.cos[i])
						}
					}
				}
			}
			run() // sizes every slot and buffer
			if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
				t.Errorf("warm Bind+Decide allocated %v times per pass over %d programs", allocs, len(progs))
			}
		})
	}
}
