package stress_test

// The bench ledger's stress row (`make bench`, cmd/benchledger): one
// native-execution run of a synthesized suite per op, cross-checked
// against the model, so executor speed and soundness travel together.

import (
	"context"
	"testing"

	"memsynth/internal/harness"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/stress"
	"memsynth/internal/synth"
)

// BenchmarkStress runs the bound-4 sc and tso suites with a fixed seed, so
// rows are replayable, and fails on any outcome the model forbids: Go
// atomics are seq-cst, so one is a soundness bug, not a perf number.
func BenchmarkStress(b *testing.B) {
	iters := 4096
	if testing.Short() {
		iters = 512
	}
	for _, m := range []memmodel.Model{memmodel.SC(), memmodel.TSO()} {
		var tests []*litmus.Test
		for _, e := range synth.Synthesize(m, synth.Options{MaxEvents: 4}).Union.Entries {
			tests = append(tests, e.Test)
		}
		b.Run(m.Name()+"@4", func(b *testing.B) {
			var rep *harness.StressSuiteReport
			for i := 0; i < b.N; i++ {
				rep = harness.RunStressSuite(context.Background(), m, tests,
					stress.Options{Iterations: iters, Seed: 1}, nil)
				if rep.Unexplained > 0 {
					b.Errorf("%d iterations observed model-forbidden outcomes", rep.Unexplained)
				}
			}
			b.ReportMetric(float64(rep.TestsRun), "tests")
		})
	}
}
