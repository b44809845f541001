package cluster

import (
	"fmt"

	"memsynth/internal/store"
	"memsynth/internal/synth"
)

// WireShardEntry is one shard finding on the wire: the entry's manifest
// (class key, size and witness relations, in the store's encoding) and the
// axioms it is minimal for. The test program itself travels in the
// result's suite text (one litmus test per entry, in entry order), so an
// upload decodes through the same store.DecodeEntries a stored suite
// does, and a malformed entry is rejected before it reaches a merge.
type WireShardEntry struct {
	store.EntryManifest
	Axioms []string `json:"axioms"`
}

// WireShardResult is the upload body of POST /v1/cluster/shards/{d}/result.
type WireShardResult struct {
	ShardDigest   string               `json:"shard_digest"`
	EngineVersion string               `json:"engine_version"`
	Model         string               `json:"model"`
	ModelSource   string               `json:"model_source,omitempty"`
	ModelDigest   string               `json:"model_digest,omitempty"`
	Options       store.RequestOptions `json:"options"`
	Index         int                  `json:"index"`
	Stride        int                  `json:"stride"`
	// SuiteText holds the shard's found tests as litmus text, one test
	// per entry in Entries order.
	SuiteText string           `json:"suite_text"`
	Entries   []WireShardEntry `json:"entries"`
	Stats     synth.Stats      `json:"stats"`
}

// EncodeShardResult serializes a shard run for upload.
func EncodeShardResult(shardDigest string, sr *synth.ShardResult) *WireShardResult {
	entries := make([]synth.Entry, len(sr.Entries))
	for i, se := range sr.Entries {
		entries[i] = se.Entry
	}
	text, manifests := store.EncodeEntries(entries)
	wire := make([]WireShardEntry, len(sr.Entries))
	for i, se := range sr.Entries {
		wire[i] = WireShardEntry{EntryManifest: manifests[i], Axioms: se.Axioms}
	}
	return &WireShardResult{
		ShardDigest:   shardDigest,
		EngineVersion: synth.EngineVersion,
		Model:         sr.Model,
		ModelSource:   sr.ModelSource,
		ModelDigest:   sr.ModelDigest,
		Options:       store.FromSynthOptions(sr.Options),
		Index:         sr.Shard.Index,
		Stride:        sr.Shard.Stride,
		SuiteText:     text,
		Entries:       wire,
		Stats:         sr.Stats,
	}
}

// DecodeShardResult rebuilds the synth.ShardResult from its wire form
// through store.DecodeEntries, which checks every entry's witness and key.
// Engine-version mismatches are rejected outright: a shard synthesized by
// a different engine must never reach a merge.
func DecodeShardResult(w *WireShardResult) (*synth.ShardResult, error) {
	if w.EngineVersion != synth.EngineVersion {
		return nil, fmt.Errorf("cluster: shard result from engine version %q, want %q",
			w.EngineVersion, synth.EngineVersion)
	}
	manifests := make([]store.EntryManifest, len(w.Entries))
	for i, we := range w.Entries {
		manifests[i] = we.EntryManifest
	}
	entries, err := store.DecodeEntries(w.SuiteText, manifests)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %s: %w", w.ShardDigest, err)
	}
	sr := &synth.ShardResult{
		Model:       w.Model,
		ModelSource: w.ModelSource,
		ModelDigest: w.ModelDigest,
		Options:     w.Options.SynthOptions().Normalize(),
		Shard:       synth.ShardSpec{Index: w.Index, Stride: w.Stride},
		Entries:     make([]synth.ShardEntry, len(entries)),
		Stats:       w.Stats,
	}
	for i, e := range entries {
		sr.Entries[i] = synth.ShardEntry{Axioms: w.Entries[i].Axioms, Entry: e}
	}
	return sr, nil
}
