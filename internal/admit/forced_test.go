package admit_test

import (
	"fmt"
	"testing"

	"memsynth/internal/admit"
	"memsynth/internal/canon"
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/minimal"
	"memsynth/internal/randgen"
	"memsynth/internal/synth"
)

// forcedEdgeRejections binds both checkers to tt and enumerates its
// executions with Decide as the reads-from filter. Every visited
// execution whose coherence order Extends rejects must have no minimal
// axiom. It returns how many executions Extends rejected.
func forcedEdgeRejections(t *testing.T, chk *minimal.Checker, adm *admit.Checker, tt *litmus.Test, what string) int {
	t.Helper()
	chk.Bind(tt)
	adm.Bind(tt, chk.Apps())
	rejected := 0
	exec.Enumerate(tt, exec.EnumerateOptions{RFFilter: adm.Decide}, func(x *exec.Execution) bool {
		if adm.Extends(x.CO) {
			return true
		}
		rejected++
		if mins := chk.Check(x).MinimalFor(); len(mins) > 0 {
			t.Fatalf("%s: co %v of admitted rf %v breaks a forced edge, yet is minimal for axioms %v\n%s",
				what, x.CO, x.RF, mins, tt)
		}
		return true
	})
	return rejected
}

// TestForcedEdgesAgreeWithEnumeration is the soundness gate for skipping
// the minimality check: an execution whose coherence order breaks an edge
// Decide forced is not observable under the application that forced it,
// so it must never be minimal. It runs over the random corpus of
// TestDecideAgreesWithEnumeration plus the single-address tso@6 program
// stream, and demands that something is rejected, so it cannot pass
// vacuously.
func TestForcedEdgesAgreeWithEnumeration(t *testing.T) {
	seeds := int64(60)
	if testing.Short() {
		seeds = 15
	}
	type caseID struct {
		model string
		seed  int64
	}
	var cases []caseID
	for _, name := range []string{"sc", "tso"} {
		for seed := int64(1); seed <= seeds; seed++ {
			cases = append(cases, caseID{name, seed})
		}
	}
	for _, p := range admit.PinnedCases {
		cases = append(cases, caseID{p.Model, p.Seed})
	}

	rejected := 0
	for _, tc := range cases {
		m, err := memmodel.ByName(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		tt := randgen.New(m, randgen.Options{MaxEvents: 5}, tc.seed).Test()
		what := fmt.Sprintf("%s seed %d (pin {%q, %d} in pinnedCases)", tc.model, tc.seed, tc.model, tc.seed)
		rejected += forcedEdgeRejections(t, minimal.NewChecker(m), admit.NewChecker(m), tt, what)
	}
	if rejected == 0 {
		t.Error("Extends rejected nothing across the whole random corpus; the gate is vacuous")
	}
	t.Logf("%d random programs, %d executions rejected by forced edges", len(cases), rejected)

	t.Run("stream/tso@6/addrs=1", func(t *testing.T) {
		if testing.Short() {
			t.Skip("full single-address tso@6 program stream")
		}
		m, err := memmodel.ByName("tso")
		if err != nil {
			t.Fatal(err)
		}
		chk, adm := minimal.NewChecker(m), admit.NewChecker(m)
		seen := make(map[string]bool)
		programs, rejected := 0, 0
		err = synth.EnumeratePrograms(m.Vocab(), synth.Options{MaxEvents: 6, MaxAddrs: 1}, func(tt *litmus.Test) bool {
			key := canon.ProgramKey(tt)
			if seen[key] {
				return true
			}
			seen[key] = true
			programs++
			rejected += forcedEdgeRejections(t, chk, adm, tt, fmt.Sprintf("tso@6 program %d", programs))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if rejected == 0 {
			t.Errorf("Extends rejected nothing across %d programs; the gate is vacuous", programs)
		}
		t.Logf("%d programs, %d executions rejected by forced edges", programs, rejected)
	})
}
