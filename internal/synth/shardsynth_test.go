package synth

import (
	"context"
	"testing"

	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
)

// suiteText renders a suite exactly as the store persists it, so byte
// comparisons here match the bytes memsynthd serves.
func suiteText(s *Suite) string {
	specs := make([]*litmus.Spec, len(s.Entries))
	for i, e := range s.Entries {
		specs[i] = &litmus.Spec{Test: e.Test, Forbid: e.Exec.OutcomeConds()}
	}
	return litmus.FormatSuite(specs)
}

// counts is st without its times: every count of a run (ProgramsRaw,
// Programs, Executions, ExecutionsFast, ForbiddenOutcomes, Entries) and
// the Interrupted flag.
func counts(st Stats) Stats {
	st.Elapsed, st.Stages = 0, Stages{}
	return st
}

// TestShardMergeMatchesSingleNode is the determinism contract the cluster
// subsystem is built on: for every builtin model, sharding the deduped
// program stream N ways and merging the shard results reproduces the
// single-node suites byte for byte, for any shard count. All 8 builtins
// run at a shared bound of 3 (hsa and armv8 are seconds-to-minutes at 4);
// the fast models additionally run at bound 4. Every count of the merged
// Stats, the forbidden-outcome census included, equals the single-node
// run's.
func TestShardMergeMatchesSingleNode(t *testing.T) {
	bounds := map[string]int{"sc": 4, "tso": 4, "power": 4, "armv7": 4}
	for _, m := range memmodel.All() {
		m := m
		bound := 3
		if b, ok := bounds[m.Name()]; ok && !testing.Short() {
			bound = b
		}
		t.Run(m.Name(), func(t *testing.T) {
			t.Parallel()
			opts := Options{MaxEvents: bound, CountForbidden: true}
			single := Synthesize(m, opts)

			for _, stride := range []int{1, 2, 3, 7} {
				shards := make([]*ShardResult, stride)
				for i := 0; i < stride; i++ {
					sr, err := SynthesizeShard(context.Background(), m, opts, ShardSpec{Index: i, Stride: stride})
					if err != nil {
						t.Fatalf("stride %d shard %d: %v", stride, i, err)
					}
					if sr.Stats.Interrupted {
						t.Fatalf("stride %d shard %d: interrupted without cancellation", stride, i)
					}
					// Hand shards to the merge in a scrambled order to
					// prove order independence.
					shards[(i+1)%stride] = sr
				}
				merged, err := MergeShards(m, opts, shards)
				if err != nil {
					t.Fatalf("stride %d: merge: %v", stride, err)
				}
				if got, want := len(merged.Union.Entries), len(single.Union.Entries); got != want {
					t.Fatalf("stride %d: union has %d entries, single-node %d", stride, got, want)
				}
				if got, want := suiteText(merged.Union), suiteText(single.Union); got != want {
					t.Errorf("stride %d: union suite bytes differ from single-node", stride)
				}
				if got, want := len(merged.PerAxiom), len(single.PerAxiom); got != want {
					t.Fatalf("stride %d: %d axiom suites, single-node %d", stride, got, want)
				}
				for name, ss := range single.PerAxiom {
					ms, ok := merged.PerAxiom[name]
					if !ok {
						t.Fatalf("stride %d: merged result lacks axiom suite %q", stride, name)
					}
					if suiteText(ms) != suiteText(ss) {
						t.Errorf("stride %d: axiom %q suite bytes differ from single-node", stride, name)
					}
				}
				if got, want := counts(merged.Stats), counts(single.Stats); got != want {
					t.Errorf("stride %d: counts %+v, single-node %+v", stride, got, want)
				}
				if merged.Admit != single.Admit || merged.ModelSource != single.ModelSource || merged.ModelDigest != single.ModelDigest {
					t.Errorf("stride %d: provenance (admit %q, source %q, digest %q), single-node (%q, %q, %q)", stride,
						merged.Admit, merged.ModelSource, merged.ModelDigest, single.Admit, single.ModelSource, single.ModelDigest)
				}
			}
		})
	}
}

// TestMergeStats pins the one fold of shard counters: shards do disjoint
// work, so every count and stage time adds, Elapsed is the slowest
// shard's, and MaxStats never reads below either input.
func TestMergeStats(t *testing.T) {
	a := Stats{ProgramsRaw: 10, Programs: 8, Executions: 5, ExecutionsFast: 2, ForbiddenOutcomes: 1, Entries: 1,
		Elapsed: 7, Stages: Stages{Generation: 3, Dedupe: 1, Execution: 2, Minimality: 3}}
	b := Stats{ProgramsRaw: 12, Programs: 6, Executions: 4, ExecutionsFast: 3, ForbiddenOutcomes: 2, Entries: 2,
		Elapsed: 9, Stages: Stages{Generation: 4, Dedupe: 2, Execution: 3, Minimality: 4}, Interrupted: true}
	merged := Stats{ProgramsRaw: 22, Programs: 14, Executions: 9, ExecutionsFast: 5, ForbiddenOutcomes: 3, Entries: 3,
		Elapsed: 9, Stages: Stages{Generation: 7, Dedupe: 3, Execution: 5, Minimality: 7}, Interrupted: true}
	if got := MergeStats(a, b); got != merged {
		t.Errorf("MergeStats = %+v, want %+v", got, merged)
	}
	if got := MergeStats(a); got != a {
		t.Errorf("MergeStats of one shard = %+v, want it unchanged %+v", got, a)
	}
	most := Stats{ProgramsRaw: 12, Programs: 8, Executions: 5, ExecutionsFast: 3, ForbiddenOutcomes: 2, Entries: 2,
		Elapsed: 9, Stages: Stages{Generation: 4, Dedupe: 2, Execution: 3, Minimality: 4}, Interrupted: true}
	if got := MaxStats(a, b); got != most {
		t.Errorf("MaxStats = %+v, want %+v", got, most)
	}
}

// TestShardMergeCountForbidden checks the forbidden-outcome census sums
// exactly across shards: execution symmetry classes of distinct canonical
// programs are disjoint, so per-shard counts partition the global count.
func TestShardMergeCountForbidden(t *testing.T) {
	m, err := memmodel.ByName("sc")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxEvents: 4, CountForbidden: true}
	single := Synthesize(m, opts)
	const stride = 3
	shards := make([]*ShardResult, stride)
	for i := range shards {
		shards[i], err = SynthesizeShard(context.Background(), m, opts, ShardSpec{Index: i, Stride: stride})
		if err != nil {
			t.Fatal(err)
		}
	}
	merged, err := MergeShards(m, opts, shards)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Stats.ForbiddenOutcomes != single.Stats.ForbiddenOutcomes {
		t.Errorf("ForbiddenOutcomes = %d, single-node %d",
			merged.Stats.ForbiddenOutcomes, single.Stats.ForbiddenOutcomes)
	}
}

// TestShardMergeRejectsDuplicateKeys hands the merge two shards that
// carry the same entry key. Shards explore disjoint program classes, so
// that can only mean two shards explored one class, and the merge must
// fail instead of keeping either copy.
func TestShardMergeRejectsDuplicateKeys(t *testing.T) {
	m, err := memmodel.ByName("sc")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxEvents: 3}
	shards := make([]*ShardResult, 2)
	for i := range shards {
		if shards[i], err = SynthesizeShard(context.Background(), m, opts, ShardSpec{Index: i, Stride: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := MergeShards(m, opts, shards); err != nil {
		t.Fatalf("disjoint shards: %v", err)
	}
	src, dst := shards[0], shards[1]
	if len(src.Entries) == 0 {
		src, dst = dst, src
	}
	if len(src.Entries) == 0 {
		t.Fatal("no shard found an entry")
	}
	dst.Entries = append(dst.Entries, src.Entries[0])
	if _, err := MergeShards(m, opts, shards); err == nil {
		t.Errorf("merge accepted key %s from both shards", src.Entries[0].Entry.Key)
	}
}

// TestShardValidationAndInterrupts covers the merge preconditions: bad
// specs, incomplete covers, mixed strides, and interrupted shards are all
// rejected rather than silently merged.
func TestShardValidationAndInterrupts(t *testing.T) {
	m, err := memmodel.ByName("sc")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxEvents: 3}

	if _, err := SynthesizeShard(context.Background(), m, opts, ShardSpec{Index: 2, Stride: 2}); err == nil {
		t.Error("out-of-range shard index accepted")
	}
	if _, err := SynthesizeShard(context.Background(), m, opts, ShardSpec{Index: 0, Stride: 0}); err == nil {
		t.Error("zero stride accepted")
	}

	s0, err := SynthesizeShard(context.Background(), m, opts, ShardSpec{Index: 0, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShards(m, opts, []*ShardResult{s0}); err == nil {
		t.Error("incomplete shard cover accepted")
	}
	if _, err := MergeShards(m, opts, []*ShardResult{s0, s0}); err == nil {
		t.Error("duplicate shard index accepted")
	}

	// A cancelled shard comes back interrupted and must be rejected.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	si, err := SynthesizeShard(ctx, m, opts, ShardSpec{Index: 1, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !si.Stats.Interrupted {
		t.Fatal("cancelled shard not marked interrupted")
	}
	if _, err := MergeShards(m, opts, []*ShardResult{s0, si}); err == nil {
		t.Error("interrupted shard accepted by merge")
	}
}
