package synth

// Macro rows of the bench ledger (`make bench`, cmd/benchledger): whole
// synthesis runs and the explore phase alone, at the largest bounds
// TestPaperCounts pins for tso, power and scc, or smaller ones under
// -short, the generate/dedupe phase of one size, and a cluster request's
// shard round trip.

import (
	"context"
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
				perSize = append(perSize, e.generateAndDedupe(n, ShardSpec{Index: 0, Stride: 1}))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, winners := range perSize {
					e.explore(winners)
				}
			}
		})
	}
}

// BenchmarkGenerate times the generate/dedupe phase of one size, power's
// largest at its ledger bound, on one worker: skeleton enumeration, direct
// program construction, canonical program keys and the first-wins pass.
func BenchmarkGenerate(b *testing.B) {
	c := benchCase{memmodel.Power(), 4}
	if testing.Short() {
		c.bound = 3
	}
	b.Run(c.String(), func(b *testing.B) {
		e := newEngine(c.model, Options{MaxEvents: c.bound, Workers: 1}.withDefaults())
		var winners []*litmus.Test
		for i := 0; i < b.N; i++ {
			winners = e.generateAndDedupe(c.bound, ShardSpec{Index: 0, Stride: 1})
		}
		b.ReportMetric(float64(len(winners)), "programs")
	})
}

// BenchmarkShard times the engine work of a two-shard cluster request
// without the wire: both shards of stride 2, each at one engine worker as
// a cluster worker with one CPU runs it, one after the other, and their
// merge. The counts equal the matching BenchmarkSynth row's.
func BenchmarkShard(b *testing.B) {
	c := benchCase{memmodel.Power(), 4}
	if testing.Short() {
		c.bound = 3
	}
	const stride = 2
	b.Run(fmt.Sprintf("%s/stride=%d", c, stride), func(b *testing.B) {
		opts := Options{MaxEvents: c.bound, Workers: 1}
		var res *Result
		for i := 0; i < b.N; i++ {
			shards := make([]*ShardResult, stride)
			for j := range shards {
				sr, err := SynthesizeShard(context.Background(), c.model, opts, ShardSpec{Index: j, Stride: stride})
				if err != nil {
					b.Fatal(err)
				}
				shards[j] = sr
			}
			var err error
			if res, err = MergeShards(c.model, opts, shards); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.Stats.Programs), "programs")
		b.ReportMetric(float64(res.Stats.Executions), "executions")
	})
}
