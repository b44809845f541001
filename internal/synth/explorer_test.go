package synth

import (
	"testing"

	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
)

// TestExplorerAllocs: once an explorer has processed a size's programs,
// processing any of them again allocates nothing unless it has a finding
// (whose entry, execution clone and key are the run's output). It covers
// tso and power at bound 4 with admit on, and so the whole per-program
// path: applications, the checkers' binds, execution enumeration, admit's
// filter and the minimality check.
func TestExplorerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, m := range []memmodel.Model{memmodel.TSO(), memmodel.Power()} {
		t.Run(m.Name(), func(t *testing.T) {
			e := newEngine(m, Options{MaxEvents: 4, Workers: 1}.withDefaults())
			if !e.admitOn {
				t.Fatal("admit is off")
			}
			w := e.newExplorer()
			var quiet []*litmus.Test
			findings := 0
			for n := 2; n <= 4; n++ {
				for _, p := range e.generateAndDedupe(n, ShardSpec{Index: 0, Stride: 1}) {
					if w.process(p) == nil {
						quiet = append(quiet, p)
					} else {
						findings++
					}
				}
			}
			if findings == 0 || len(quiet) == 0 {
				t.Fatalf("%d programs with findings and %d without", findings, len(quiet))
			}
			step := max(1, len(quiet)/50)
			for i := 0; i < len(quiet); i += step {
				p := quiet[i]
				if allocs := testing.AllocsPerRun(3, func() { w.process(p) }); allocs != 0 {
					t.Errorf("processing %v allocates %.1f times", p, allocs)
				}
			}
		})
	}
}
