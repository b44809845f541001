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
//
// The pinned 7-event program is one where the fr edges a forced co edge
// implies change the forced set: the chain that needs them plus the event
// its RI application removes take 7 events, so no stream above shows it.
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
	for _, name := range []string{"sc", "tso"} {
		t.Run(name+"/forced-fr", func(t *testing.T) {
			m, err := memmodel.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			s := newSatCompare(m)
			s.program(t, forcedFRProgram())
			s.check(t)
		})
	}
}

// forcedFRProgram is St x; St x; St y || Ld y; Ld x || St y; Ld y. Take
// rf Ld y(T1) ← St y(T2) and Ld x ← the first St x, under the RI
// application that removes T2's Ld y. Once co(first St x, second St x)
// is forced, Ld x is fr-before the second St x, so the path
// Ld y →ppo Ld x →fr St x →ppo St y(T0) exists and forces
// co(St y(T2), St y(T0)) by the (rw) rule. Without that fr edge Ld x has
// no successor, and no rule derives the co edge.
func forcedFRProgram() *litmus.Test {
	x, y := 0, 1
	return litmus.New("forced-fr", [][]litmus.Op{
		{litmus.W(x), litmus.W(x), litmus.W(y)},
		{litmus.R(y), litmus.R(x)},
		{litmus.W(y), litmus.R(y)},
	})
}

func compareSaturation(t *testing.T, name string, opts synth.Options) {
	m, err := memmodel.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s := newSatCompare(m)
	distinctPrograms(t, m, opts, func(tt *litmus.Test) bool {
		s.program(t, tt)
		return !t.Failed()
	})
	s.check(t)
}

// distinctPrograms calls f on the first program of each symmetry class of
// m's stream under opts until f returns false, and returns how many
// programs it called f on. Under the race detector or -short it takes
// only every k-th program of the stream, about 3,000 in all.
func distinctPrograms(t *testing.T, m memmodel.Model, opts synth.Options, f func(*litmus.Test) bool) int {
	t.Helper()
	every := 1
	if raceEnabled || testing.Short() {
		total := 0
		if err := synth.EnumeratePrograms(m.Vocab(), opts, func(*litmus.Test) bool { total++; return true }); err != nil {
			t.Fatal(err)
		}
		every = max(1, total/3000)
	}
	seen := make(map[string]bool)
	raw := 0
	err := synth.EnumeratePrograms(m.Vocab(), opts, func(tt *litmus.Test) bool {
		raw++
		if (raw-1)%every != 0 {
			return true
		}
		key := canon.ProgramKey(tt)
		if seen[key] {
			return true
		}
		seen[key] = true
		return f(tt)
	})
	if err != nil {
		t.Fatal(err)
	}
	return len(seen)
}

// satCompare runs Checker and ReferenceChecker side by side and counts
// what they decided.
type satCompare struct {
	m                                              memmodel.Model
	inc                                            *admit.Checker
	ref                                            *admit.ReferenceChecker
	programs, assignments, refuted, forced, orders int
}

func newSatCompare(m memmodel.Model) *satCompare {
	return &satCompare{m: m, inc: admit.NewChecker(m), ref: admit.NewReferenceChecker(m)}
}

// program compares the two checkers on every rf assignment and every
// coherence order of an admitted assignment of tt.
func (s *satCompare) program(t *testing.T, tt *litmus.Test) {
	t.Helper()
	s.programs++
	apps := memmodel.Applications(s.m, tt)
	s.inc.Bind(tt, apps)
	s.ref.Bind(tt, apps)
	exec.Enumerate(tt, exec.EnumerateOptions{RFFilter: func(rf []int) bool {
		s.assignments++
		got, want := s.inc.Decide(rf), s.ref.Decide(rf)
		if got != want {
			t.Fatalf("rf %v: Decide = %v, reference = %v\n%s", rf, got, want, tt)
		}
		if gotCo, wantCo := admit.UnionCo(s.inc), s.ref.UnionCo(); !gotCo.Equal(wantCo) {
			t.Fatalf("rf %v: forced co %v, reference %v\n%s", rf, gotCo, wantCo, tt)
		}
		if !got {
			s.refuted++
		} else if !admit.UnionCo(s.inc).IsEmpty() {
			s.forced++
		}
		return got
	}}, func(x *exec.Execution) bool {
		s.orders++
		if got, want := s.inc.Extends(x.CO), s.ref.Extends(x.CO); got != want {
			t.Fatalf("rf %v co %v: Extends = %v, reference = %v\n%s", x.RF, x.CO, got, want, tt)
		}
		return true
	})
}

// check fails the test if the comparison was vacuous and logs the counts.
func (s *satCompare) check(t *testing.T) {
	t.Helper()
	if s.refuted == 0 {
		t.Error("no rf assignment refuted; the comparison is vacuous")
	}
	if s.forced == 0 {
		t.Error("no admitted rf assignment forced a co edge; the comparison is vacuous")
	}
	t.Logf("%d programs, %d rf assignments (%d refuted, %d admitted with forced edges), %d co orders",
		s.programs, s.assignments, s.refuted, s.forced, s.orders)
}
