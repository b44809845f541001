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

// TestIncrementalSaturationMatchesReference: Decide's incremental
// saturation, which closes each graph's static base once per program and
// inserts rf and forced edges into the closure in place, must agree with
// the saturation that rebuilds and recloses every graph in every fixpoint
// round (admit.ReferenceChecker). Over every rf assignment of every
// distinct program in the bound-4 streams of the supported builtins and
// the tso@6 streams with one and with up to three addresses, the two must
// give the same verdict and the same forced co edges, and Extends must
// give the same answer on every coherence order of an admitted
// assignment. The multi-address tso@6 stream is the only one where tso's
// causality graph, which leaves out the same-thread rf edges, refutes
// what sc_per_loc does not. Under the race detector or -short it samples
// about 3,000 programs of each stream. It fails if a stream has no
// refuted assignment or no forced edge, so it cannot pass vacuously.
func TestIncrementalSaturationMatchesReference(t *testing.T) {
	for _, name := range admit.SupportedBuiltins() {
		t.Run(name+"@4", func(t *testing.T) {
			compareSaturation(t, name, synth.Options{MaxEvents: 4})
		})
	}
	t.Run("tso@6/addrs=1", func(t *testing.T) {
		compareSaturation(t, "tso", synth.Options{MaxEvents: 6, MaxAddrs: 1})
	})
	t.Run("tso@6", func(t *testing.T) {
		compareSaturation(t, "tso", synth.Options{MaxEvents: 6})
	})
}

func compareSaturation(t *testing.T, name string, opts synth.Options) {
	m, err := memmodel.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	every := 1
	if raceEnabled || testing.Short() {
		total := 0
		if err := synth.EnumeratePrograms(m.Vocab(), opts, func(*litmus.Test) bool { total++; return true }); err != nil {
			t.Fatal(err)
		}
		every = max(1, total/3000)
	}
	inc, ref := admit.NewChecker(m), admit.NewReferenceChecker(m)
	seen := make(map[string]bool)
	raw, programs, assignments, refuted, forced, orders := 0, 0, 0, 0, 0, 0
	err = synth.EnumeratePrograms(m.Vocab(), opts, func(tt *litmus.Test) bool {
		raw++
		if (raw-1)%every != 0 {
			return true
		}
		key := canon.ProgramKey(tt)
		if seen[key] {
			return true
		}
		seen[key] = true
		programs++
		apps := memmodel.Applications(m, tt)
		inc.Bind(tt, apps)
		ref.Bind(tt, apps)
		exec.Enumerate(tt, exec.EnumerateOptions{RFFilter: func(rf []int) bool {
			assignments++
			got, want := inc.Decide(rf), ref.Decide(rf)
			if got != want {
				t.Fatalf("rf %v: Decide = %v, reference = %v\n%s", rf, got, want, tt)
			}
			if gotCo, wantCo := admit.UnionCo(inc), ref.UnionCo(); !gotCo.Equal(wantCo) {
				t.Fatalf("rf %v: forced co %v, reference %v\n%s", rf, gotCo, wantCo, tt)
			}
			if !got {
				refuted++
			} else if !admit.UnionCo(inc).IsEmpty() {
				forced++
			}
			return got
		}}, func(x *exec.Execution) bool {
			orders++
			if got, want := inc.Extends(x.CO), ref.Extends(x.CO); got != want {
				t.Fatalf("rf %v co %v: Extends = %v, reference = %v\n%s", x.RF, x.CO, got, want, tt)
			}
			return true
		})
		return !t.Failed()
	})
	if err != nil {
		t.Fatal(err)
	}
	if refuted == 0 {
		t.Error("no rf assignment refuted; the comparison is vacuous")
	}
	if forced == 0 {
		t.Error("no admitted rf assignment forced a co edge; the comparison is vacuous")
	}
	t.Logf("%d programs, %d rf assignments (%d refuted, %d admitted with forced edges), %d co orders",
		programs, assignments, refuted, forced, orders)
}
