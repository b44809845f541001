package synth

import (
	"context"
	"fmt"

	"memsynth/internal/memmodel"
)

// This file is the engine's shard-bounded entry point, the primitive the
// cluster subsystem (internal/cluster) distributes over. A shard is an
// (index, stride) partition of the *deduped program stream*: every shard
// regenerates and dedupes the full skeleton stream (generation is cheap
// and deterministic — the exponential cost lives in the explore phase)
// so all shards agree on the identical per-size winner list, then each
// shard explores only the winners whose per-size index is congruent to
// Index modulo Stride. The union of the shards' explored programs is
// therefore exactly the single-node winner set, partitioned. A canonical
// key embeds its program's encoding, so the shards' findings are disjoint
// sets of keys, and MergeShards unions them in any order: the suites'
// final (Size, Key) sort reproduces the single-node suites byte for byte,
// for any stride.

// ShardSpec selects one (index, stride) partition of the deduped program
// stream. Stride 1 / index 0 is the whole stream (equivalent to a plain
// SynthesizeContext run on the enumeration engine).
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
	// Stats carries the shard's own explore counters (Executions,
	// Entries, ForbiddenOutcomes, stage times) but full-stream generation
	// counters (ProgramsRaw, Programs) — every shard regenerates the
	// whole stream, so those are identical across shards.
	Stats Stats
}

// SynthesizeShard runs the synthesis pipeline for exactly one shard of
// the deduped program stream: generation and dedupe run in full (their
// output is deterministic, so every shard computes the identical winner
// list), and only winners with per-size index ≡ shard.Index (mod
// shard.Stride) are explored. Cancellation returns a partial result with
// Stats.Interrupted set, which MergeShards rejects — an interrupted shard
// must be retried, never merged. A model that panics fails the shard with
// an error.
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
// Stats are folded by MergeStats. The shards' Entries and
// ForbiddenOutcomes add up exactly: a canonical key embeds its program's
// encoding, so the shards, which explore disjoint program classes, never
// count one key twice.
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
