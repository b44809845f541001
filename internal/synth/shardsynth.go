package synth

import (
	"context"
	"fmt"

	"memsynth/internal/memmodel"
)

// This file is the engine's shard-bounded entry point, the primitive the
// cluster subsystem (internal/cluster) distributes over. A shard is an
// (index, stride) partition of the program stream by symmetry class: the
// generator hashes each skeleton with a class invariant (classHash: a
// multiset hash over threads that no thread permutation or address or
// group renaming changes) before building it, and a shard builds, keys
// and explores only the programs whose hash is congruent to Index modulo
// Stride. Every program of a class hashes alike, so a shard's substream
// holds whole classes in generation order, and its first-wins dedupe
// keeps exactly the single-node representatives of those classes. The
// shards' winners therefore partition the single-node winners, and their
// counters add up to the single-node run's. A canonical key embeds its
// program's encoding, so the shards' findings are disjoint sets of keys,
// and MergeShards unions them in any order: the suites' final
// (Size, Key) sort reproduces the single-node suites byte for byte, for
// any stride.

// PartitionScheme names the rule that assigns programs to shards. Two
// nodes that share an EngineVersion but not this scheme would explore
// overlapping or missing classes, so the cluster protocol carries it and
// refuses a mismatch. Changing classHash or an op enum it reads changes
// the partition (TestShardPartitionCounts fails) and needs a new scheme.
const PartitionScheme = "class-hash-v1"

// ShardSpec selects one (index, stride) partition of the program stream:
// the programs whose class hash is congruent to Index modulo Stride.
// Stride 1 / index 0 is the whole stream and computes no hash (it is a
// plain SynthesizeContext run).
type ShardSpec struct {
	Index  int `json:"index"`
	Stride int `json:"stride"`
}

// Validate rejects malformed shard coordinates.
func (s ShardSpec) Validate() error {
	if s.Stride < 1 {
		return fmt.Errorf("synth: ShardSpec.Stride must be >= 1, got %d", s.Stride)
	}
	if s.Index < 0 || s.Index >= s.Stride {
		return fmt.Errorf("synth: ShardSpec.Index must be in [0,%d), got %d", s.Stride, s.Index)
	}
	return nil
}

// ShardEntry is one minimal-test finding of a shard run: the entry and
// the axioms it belongs to. A shard reports each class key at most once.
type ShardEntry struct {
	// Axioms are the names of the axioms the entry is minimal for, in the
	// engine's axiom order.
	Axioms []string
	Entry  Entry
}

// ShardResult is the outcome of one SynthesizeShard run.
type ShardResult struct {
	Model       string
	ModelSource string
	ModelDigest string
	// Options are the normalized request options (identical across the
	// shards of one request).
	Options Options
	Shard   ShardSpec
	Entries []ShardEntry
	// Stats counts the shard's own work: the programs it generated and
	// kept (ProgramsRaw, Programs), its explore counters and its stage
	// times. The shards' counts add up to the single-node run's.
	Stats Stats
}

// SynthesizeShard runs the synthesis pipeline for exactly one shard of
// the program stream: it generates, dedupes and explores only the
// symmetry classes the shard owns. Cancellation returns a partial result
// with Stats.Interrupted set, which MergeShards rejects — an interrupted
// shard must be retried, never merged. A model that panics fails the
// shard with an error.
func SynthesizeShard(ctx context.Context, m memmodel.Model, opts Options, shard ShardSpec) (*ShardResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := shard.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	e := newEngine(m, opts)
	out := &ShardResult{
		Model:       e.model.Name(),
		ModelSource: e.res.ModelSource,
		ModelDigest: e.res.ModelDigest,
		Options:     opts.Normalize(),
		Shard:       shard,
	}
	var err error
	out.Entries, out.Stats, err = e.run(ctx, shard)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sameOutputOptions reports whether two normalized Options describe the
// same synthesis output (Options holds func fields, so == is unavailable).
func sameOutputOptions(a, b Options) bool {
	return a.MinEvents == b.MinEvents &&
		a.MaxEvents == b.MaxEvents &&
		a.MaxThreads == b.MaxThreads &&
		a.MaxAddrs == b.MaxAddrs &&
		a.MaxDeps == b.MaxDeps &&
		a.MaxRMWs == b.MaxRMWs &&
		a.CountForbidden == b.CountForbidden &&
		a.KeepTrivialFences == b.KeepTrivialFences &&
		a.KeepIsolatedAddrs == b.KeepIsolatedAddrs
}

// MergeShards folds a complete set of shard results — exactly one per
// index in [0, stride) — into a single Result that is byte-identical
// (suite texts, entry order, store digest) to a single-node run of the
// same (model, options). The shards' findings are disjoint sets of class
// keys, so the merge adds them in any order through the same fill a
// single-node run uses. A key that two shards both carry means they
// explored one class, and the merge fails instead of keeping either.
//
// Stats are folded by MergeStats, and every count adds up exactly: the
// shards generate disjoint sets of programs, and a canonical key embeds
// its program's encoding, so the shards, which explore disjoint program
// classes, never count one key twice.
func MergeShards(m memmodel.Model, opts Options, shards []*ShardResult) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if len(shards) == 0 {
		return nil, fmt.Errorf("synth: MergeShards with no shards")
	}
	stride := shards[0].Shard.Stride
	if len(shards) != stride {
		return nil, fmt.Errorf("synth: MergeShards got %d shards for stride %d", len(shards), stride)
	}
	wantOpts := opts.Normalize()
	seen := make([]bool, stride)
	for _, sr := range shards {
		if sr == nil {
			return nil, fmt.Errorf("synth: MergeShards got a nil shard result")
		}
		if sr.Model != m.Name() {
			return nil, fmt.Errorf("synth: MergeShards: shard is for model %q, want %q", sr.Model, m.Name())
		}
		if sr.Shard.Stride != stride {
			return nil, fmt.Errorf("synth: MergeShards: mixed strides %d and %d", stride, sr.Shard.Stride)
		}
		if sr.Shard.Index < 0 || sr.Shard.Index >= stride || seen[sr.Shard.Index] {
			return nil, fmt.Errorf("synth: MergeShards: bad or duplicate shard index %d (stride %d)", sr.Shard.Index, stride)
		}
		if sr.Stats.Interrupted {
			return nil, fmt.Errorf("synth: MergeShards: shard %d/%d is interrupted (retry it, do not merge)", sr.Shard.Index, stride)
		}
		if !sameOutputOptions(sr.Options, wantOpts) {
			return nil, fmt.Errorf("synth: MergeShards: shard %d options differ from the request", sr.Shard.Index)
		}
		seen[sr.Shard.Index] = true
	}

	var all []ShardEntry
	for _, sr := range shards {
		all = append(all, sr.Entries...)
	}
	res := newResult(m, opts)
	res.Backend = "cluster"
	if err := res.fill(all); err != nil {
		return nil, err
	}

	parts := make([]Stats, len(shards))
	for i, sr := range shards {
		parts[i] = sr.Stats
	}
	res.Stats = MergeStats(parts...)
	return res, nil
}
