package synth

// Macro rows of the bench ledger (`make bench`, cmd/benchledger): whole
// synthesis runs and the explore phase alone, at the largest bounds
// TestPaperCounts pins for tso, power and scc, or smaller ones under
// -short.

import (
	"fmt"
	"testing"

	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
)

type benchCase struct {
	model memmodel.Model
	bound int
}

func (c benchCase) String() string { return fmt.Sprintf("%s@%d", c.model.Name(), c.bound) }

func benchGrid() []benchCase {
	if testing.Short() {
		return []benchCase{{memmodel.TSO(), 4}, {memmodel.Power(), 3}, {memmodel.SCC(), 3}}
	}
	return []benchCase{{memmodel.TSO(), 6}, {memmodel.Power(), 4}, {memmodel.SCC(), 4}}
}

// BenchmarkSynth times a whole run (generate, dedupe, explore, merge) and
// reports the workload's shape, so a row also pins the counts.
func BenchmarkSynth(b *testing.B) {
	for _, c := range benchGrid() {
		b.Run(c.String(), func(b *testing.B) {
			var res *Result
			for i := 0; i < b.N; i++ {
				res = Synthesize(c.model, Options{MaxEvents: c.bound})
			}
			b.ReportMetric(float64(res.Stats.Programs), "programs")
			b.ReportMetric(float64(res.Stats.Executions), "executions")
			b.ReportMetric(float64(res.Stats.ExecutionsFast), "executions_fast")
			b.ReportMetric(float64(len(res.Union.Entries)), "union_entries")
		})
	}
}

// BenchmarkExplore pre-generates the distinct programs of every size and
// times only the explore phase, with the engine's worker fan-out:
// execution enumeration, admit and the minimality criterion. A row is
// one phase of the matching BenchmarkSynth row.
func BenchmarkExplore(b *testing.B) {
	for _, c := range benchGrid() {
		b.Run(c.String(), func(b *testing.B) {
			opts := Options{MaxEvents: c.bound}.withDefaults()
			e := newEngine(c.model, opts)
			var perSize [][]*litmus.Test
			for n := opts.MinEvents; n <= c.bound; n++ {
				perSize = append(perSize, e.generateAndDedupe(n))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, winners := range perSize {
					e.explore(winners, ShardSpec{Index: 0, Stride: 1})
				}
			}
		})
	}
}
