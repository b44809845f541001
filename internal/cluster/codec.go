package cluster

import (
	"fmt"
	"strings"

	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/store"
	"memsynth/internal/synth"
)

// WireShardEntry is one shard finding on the wire: the merge coordinates
// (Size, Winner, Within), the axiom memberships, and the witness
// execution's relations. The test program itself travels in the result's
// suite text (one litmus test per entry, in entry order), so the wire
// format round-trips through the same parser the store uses — the decode
// side rebuilds exactly the synth.Entry a local run would have produced.
type WireShardEntry struct {
	Size   int      `json:"size"`
	Winner int      `json:"winner"`
	Within int      `json:"within"`
	Axioms []string `json:"axioms"`
	Key    string   `json:"key"`
	RF     []int    `json:"rf"`
	CO     [][]int  `json:"co"`
	SC     []int    `json:"sc,omitempty"`
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
	specs := make([]*litmus.Spec, len(sr.Entries))
	entries := make([]WireShardEntry, len(sr.Entries))
	for i, se := range sr.Entries {
		specs[i] = &litmus.Spec{Test: se.Entry.Test, Forbid: se.Entry.Exec.OutcomeConds()}
		entries[i] = WireShardEntry{
			Size:   se.Size,
			Winner: se.Winner,
			Within: se.Within,
			Axioms: se.Axioms,
			Key:    se.Entry.Key,
			RF:     se.Entry.Exec.RF,
			CO:     se.Entry.Exec.CO,
			SC:     se.Entry.Exec.SC,
		}
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
		SuiteText:     litmus.FormatSuite(specs),
		Entries:       entries,
		Stats:         sr.Stats,
	}
}

// DecodeShardResult rebuilds the synth.ShardResult from its wire form,
// reparsing each entry's test from the suite text and reattaching its
// witness execution. Engine-version mismatches are rejected outright: a
// shard synthesized by a different engine must never reach a merge.
func DecodeShardResult(w *WireShardResult) (*synth.ShardResult, error) {
	if w.EngineVersion != synth.EngineVersion {
		return nil, fmt.Errorf("cluster: shard result from engine version %q, want %q",
			w.EngineVersion, synth.EngineVersion)
	}
	specs, err := litmus.ParseSuite(strings.NewReader(w.SuiteText))
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %s: bad suite text: %w", w.ShardDigest, err)
	}
	if len(specs) != len(w.Entries) {
		return nil, fmt.Errorf("cluster: shard %s: %d tests in suite text but %d entries",
			w.ShardDigest, len(specs), len(w.Entries))
	}
	sr := &synth.ShardResult{
		Model:       w.Model,
		ModelSource: w.ModelSource,
		ModelDigest: w.ModelDigest,
		Options:     w.Options.SynthOptions().Normalize(),
		Shard:       synth.ShardSpec{Index: w.Index, Stride: w.Stride},
		Entries:     make([]synth.ShardEntry, len(w.Entries)),
		Stats:       w.Stats,
	}
	for i, we := range w.Entries {
		spec := specs[i]
		sr.Entries[i] = synth.ShardEntry{
			Size:   we.Size,
			Winner: we.Winner,
			Within: we.Within,
			Axioms: we.Axioms,
			Entry: synth.Entry{
				Test: spec.Test,
				Exec: &exec.Execution{Test: spec.Test, RF: we.RF, CO: we.CO, SC: we.SC},
				Key:  we.Key,
				Size: we.Size,
			},
		}
	}
	return sr, nil
}
