// Package cluster turns memsynthd into a horizontally-scaled,
// cache-sharing synthesis service: a coordinator partitions cold
// synthesize requests by symmetry class (synth.SynthesizeShard's
// (index, stride) axis: a shard generates and explores only the classes
// whose hash is congruent to its index), dispatches shard jobs to
// registered workers over the /v1/cluster/* HTTP API, and merges the
// per-shard partial suites deterministically (synth.MergeShards) so the
// merged suite and store digest are byte-identical to a single-node run
// for any shard count.
//
// The protocol is pull-based: workers register with their engine
// version and partition scheme, then long-poll the coordinator for
// shard jobs, running one at a time; queued shards are dispatched in
// submission order. Every shard job is identified by a shard digest — a
// content address over (request digest, index, stride, engine version) —
// which makes dispatch, retry, reassignment, and result upload
// idempotent: a shard reassigned after a worker death and later completed
// by both the "dead" worker and its replacement is merged exactly once,
// whichever upload lands first.
//
// The coordinator does not coalesce requests: its one caller, the
// daemon's single-flight layer (internal/server), already runs each
// digest once, so a second Synthesize for a digest in flight is an error.
//
// Workers additionally treat the coordinator's suite store as a shared
// cache tier: a worker-local store miss reads through to the coordinator
// (store.Peer, served by GET /v1/suites/{digest}/bundle) before paying
// for synthesis, so any suite synthesized in the fleet is an O(1) fetch
// everywhere else.
package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"memsynth/internal/store"
)

// Sentinel errors of the distribution path. The server maps ErrNoWorkers
// and ErrNotDistributable to a local engine run, and SaturatedError to a
// 429 with Retry-After.
var (
	// ErrNoWorkers reports an empty fleet: no live registered workers.
	ErrNoWorkers = errors.New("cluster: no live workers")
	// ErrNotDistributable reports a model whose definition cannot be
	// shipped to workers (a registered model that retains no source).
	ErrNotDistributable = errors.New("cluster: model definition is not distributable")
	// ErrSaturated is matched by errors.Is against SaturatedError.
	ErrSaturated = errors.New("cluster: dispatch queue saturated")
)

// SaturatedError is the backpressure signal: the bounded dispatch queue
// cannot absorb the request's shards right now.
type SaturatedError struct {
	// RetryAfter is the suggested client backoff.
	RetryAfter time.Duration
}

func (e *SaturatedError) Error() string {
	return fmt.Sprintf("cluster: dispatch queue saturated (retry after %s)", e.RetryAfter)
}

// Is makes errors.Is(err, ErrSaturated) match.
func (e *SaturatedError) Is(target error) bool { return target == ErrSaturated }

// ShardDigest is the idempotency key of one shard job: a content address
// over the request digest, the shard coordinates, and the engine
// version. Reassignments reuse the digest, so duplicate result uploads
// (a slow worker racing its replacement) collapse onto one merge. The
// preamble names the digest's generation: v2 shards partition the
// program stream by symmetry class (synth.PartitionScheme), v1 shards
// split the deduped winner list.
func ShardDigest(requestDigest string, index, stride int, engineVersion string) string {
	h := sha256.New()
	fmt.Fprintf(h, "memsynth-shard-v2\nreq=%s\nindex=%d\nstride=%d\nengine=%s\n",
		requestDigest, index, stride, engineVersion)
	return hex.EncodeToString(h.Sum(nil))
}

// ShardJob is one unit of dispatched work: synthesize the (Index, Stride)
// shard of the program stream — the symmetry classes whose hash is
// congruent to Index modulo Stride — for the given model and options.
// The model definition travels with the job (cat models ship their
// normalized source), so workers need no shared registry.
type ShardJob struct {
	ShardDigest   string `json:"shard_digest"`
	RequestDigest string `json:"request_digest"`
	EngineVersion string `json:"engine_version"`
	// PartitionScheme is the coordinator's synth.PartitionScheme; a
	// worker that partitions otherwise releases the job.
	PartitionScheme string `json:"partition_scheme"`
	Model           string `json:"model"`
	// ModelSource is "builtin" or the definition language ("cat").
	ModelSource string `json:"model_source"`
	// ModelDigest is the definition digest ("" for builtins); workers
	// verify the compiled definition against it.
	ModelDigest string `json:"model_digest,omitempty"`
	// ModelDef is the normalized cat definition text (empty for
	// builtins).
	ModelDef string               `json:"model_def,omitempty"`
	Options  store.RequestOptions `json:"options"`
	// Admit is the request's synth.Options.Admit. RequestOptions holds
	// only output-affecting bounds, so the admit mode travels here.
	Admit  string `json:"admit,omitempty"`
	Index  int    `json:"index"`
	Stride int    `json:"stride"`
}

// RegisterRequest announces a worker. The coordinator admits only
// workers of its own engine version and partition scheme: a worker that
// splits the program stream otherwise would explore other classes than
// its shard's.
type RegisterRequest struct {
	Name            string `json:"name"`
	EngineVersion   string `json:"engine_version"`
	PartitionScheme string `json:"partition_scheme"`
}

// RegisterResponse assigns the worker its identity and cadence.
type RegisterResponse struct {
	WorkerID            string `json:"worker_id"`
	HeartbeatIntervalMS int64  `json:"heartbeat_interval_ms"`
	PollWaitMS          int64  `json:"poll_wait_ms"`
}

// ResultResponse acknowledges a shard-result upload.
type ResultResponse struct {
	Accepted bool `json:"accepted"`
	// Duplicate reports the shard was already merged (idempotent upload).
	Duplicate bool   `json:"duplicate,omitempty"`
	Reason    string `json:"reason,omitempty"`
}
