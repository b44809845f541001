// Package stress executes litmus tests natively on the host — the
// litmus7-style closing of the loop from synthesized suites to real
// hardware. Where package tsosim explores an abstract machine exhaustively
// and package exec enumerates candidate executions symbolically, stress
// actually runs the test: each thread becomes a goroutine pinned to an OS
// thread, its instructions compiled to closures over a preallocated,
// cache-line-padded shared-memory arena, and many iterations are executed
// in batches with randomized start-skew and sense-reversing barriers to
// shake out real interleavings. The product is an outcome histogram keyed
// by the same observable vector the rest of the system uses (reads-from
// per read plus final write per address — the projection of
// exec.OutcomeConds and tsosim.Outcome.Key), so observed outcomes flow
// directly into the model cross-check and fault-detection harness.
//
// Two compile modes trade soundness against sensitivity:
//
//   - ModeAtomic maps every access to sync/atomic operations. Go's
//     atomics are sequentially consistent, so every observed outcome is a
//     real interleaving — a subset of what any implemented model allows.
//     Atomic runs are race-detector-clean and safe to gate CI on: a
//     model-forbidden outcome under ModeAtomic is a genuine bug (in the
//     model, the engine, or the host).
//   - ModePlain keeps OPlain accesses as ordinary loads and stores. The
//     compiler and the hardware are free to reorder them, so plain runs
//     can exhibit genuinely relaxed outcomes (store buffering on x86, and
//     more on weaker hosts). Plain runs are intentionally racy: they are
//     refused under the race detector, and an outcome outside the model's
//     allowed set is an observation about the host, not a soundness bug.
//
// Ordered accesses (acquire/release/SC) and RMW pairs use sync/atomic in
// both modes; fences compile to a full barrier (an atomic exchange on a
// thread-private sink), which is conservative for weak fence kinds and
// exact for mfence/sync/SC fences on the hosts Go targets. Scopes are
// ignored: the host is one scope. Syntactic dependencies are preserved
// through an opaque value-folding helper so the compiler cannot break
// addr/data/ctrl chains in plain mode.
package stress

import (
	"context"
	"fmt"
	"sort"
	"time"

	"memsynth/internal/litmus"
	"memsynth/internal/tsosim"
)

// Mode selects the compile scheme.
type Mode uint8

const (
	// ModeAtomic compiles every access to sync/atomic — race-clean and
	// sound (observed outcomes are real interleavings).
	ModeAtomic Mode = iota
	// ModePlain keeps plain accesses unsynchronized — surfaces real
	// compiler/hardware reorderings; never run under the race detector.
	ModePlain
)

func (m Mode) String() string {
	switch m {
	case ModeAtomic:
		return "atomic"
	case ModePlain:
		return "plain"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// ParseMode parses "atomic" or "plain".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "atomic":
		return ModeAtomic, nil
	case "plain":
		return ModePlain, nil
	}
	return 0, fmt.Errorf("stress: unknown mode %q (want atomic or plain)", s)
}

// Defaults for Options fields left zero.
const (
	DefaultIterations = 4096
	DefaultBatch      = 256
	DefaultMaxSkew    = 128
)

// Options configures a stress run.
type Options struct {
	// Mode is the compile scheme (default ModeAtomic).
	Mode Mode
	// Iterations is the total iteration count per test (default
	// DefaultIterations).
	Iterations int
	// Batch is the number of iterations per arena batch (default
	// DefaultBatch; capped to Iterations).
	Batch int
	// Seed seeds the shuffle order and per-thread start-skew. Zero picks
	// a time-derived seed; the seed actually used is recorded in
	// Report.Seed either way, so any run can be replayed.
	Seed int64
	// MaxSkew bounds the randomized per-thread start delay, in spin
	// iterations (default DefaultMaxSkew; negative disables skew).
	MaxSkew int
	// Progress, when non-nil, receives a snapshot after each batch.
	Progress func(Progress)
}

func (o Options) withDefaults() Options {
	if o.Iterations <= 0 {
		o.Iterations = DefaultIterations
	}
	if o.Batch <= 0 {
		o.Batch = DefaultBatch
	}
	if o.Batch > o.Iterations {
		o.Batch = o.Iterations
	}
	if o.MaxSkew == 0 {
		o.MaxSkew = DefaultMaxSkew
	}
	if o.Seed == 0 {
		o.Seed = time.Now().UnixNano() | 1
	}
	return o
}

// Progress is one per-batch progress observation.
type Progress struct {
	// Test is the test name.
	Test string
	// Iterations counts iterations executed so far; Total is the target.
	Iterations, Total int64
	// Outcomes counts distinct outcomes observed so far.
	Outcomes int
	// Elapsed is wall-clock time since the run started.
	Elapsed time.Duration
}

// OutcomeCount is one row of the observed-outcome histogram.
type OutcomeCount struct {
	// Key is the canonical outcome key (tsosim.Outcome.Key of Outcome).
	Key string `json:"key"`
	// Outcome is the observable vector: reads-from source per event
	// (entries for non-reads are -1) and final write per address.
	Outcome tsosim.Outcome `json:"outcome"`
	// Count is the number of iterations that produced this outcome.
	Count int64 `json:"count"`
	// Allowed reports whether the model's allowed set contains this
	// outcome. Meaningful only when the report has been cross-checked
	// (Report.Checked).
	Allowed bool `json:"allowed,omitempty"`
}

// StageTimes breaks a run down by stage, in the style of synth.Stages.
type StageTimes struct {
	// Compile is test validation plus closure compilation.
	Compile time.Duration `json:"compile_ns"`
	// Run is the concurrent execution of all batches.
	Run time.Duration `json:"run_ns"`
	// Collect is outcome decoding and histogram maintenance.
	Collect time.Duration `json:"collect_ns"`
}

// Report is the result of stress-executing one test.
type Report struct {
	// Test is the test name; Mode and Seed replay the run.
	Test string `json:"test"`
	Mode string `json:"mode"`
	Seed int64  `json:"seed"`
	// Threads is the goroutine count, Batch the arena batch size.
	Threads int `json:"threads"`
	Batch   int `json:"batch"`
	// Iterations is the number of iterations actually executed (less than
	// requested only when the run was cancelled between batches).
	Iterations int64 `json:"iterations"`
	// Interrupted reports a run cancelled before all iterations executed.
	Interrupted bool `json:"interrupted,omitempty"`
	// Elapsed is total wall-clock time; Stages the per-stage breakdown.
	Elapsed time.Duration `json:"elapsed_ns"`
	Stages  StageTimes    `json:"stages"`
	// Outcomes is the histogram, sorted by descending count then key.
	Outcomes []OutcomeCount `json:"outcomes"`
	// Corrupt counts iterations whose decoded outcome referenced no known
	// write token (impossible on aligned int64 hosts; kept as a tripwire
	// for torn accesses).
	Corrupt int64 `json:"corrupt,omitempty"`
	// Checked reports that a model cross-check filled the Allowed flags
	// and Unexplained (package harness does this).
	Checked bool `json:"checked,omitempty"`
	// Unexplained counts iterations whose outcome is absent from the
	// model's allowed set — observed-but-unlisted behavior. Zero until
	// cross-checked.
	Unexplained int64 `json:"unexplained,omitempty"`
}

// MachineOutcomes projects the histogram onto the outcome-set shape the
// testing harness consumes (harness.Machine's return type).
func (r *Report) MachineOutcomes() map[string]tsosim.Outcome {
	out := make(map[string]tsosim.Outcome, len(r.Outcomes))
	for _, oc := range r.Outcomes {
		out[oc.Key] = oc.Outcome
	}
	return out
}

// IterationsPerSecond is the run-stage throughput.
func (r *Report) IterationsPerSecond() float64 {
	if r.Stages.Run <= 0 {
		return 0
	}
	return float64(r.Iterations) / r.Stages.Run.Seconds()
}

// sortOutcomes fixes the histogram order: descending count, then key.
func (r *Report) sortOutcomes() {
	sort.Slice(r.Outcomes, func(i, j int) bool {
		if r.Outcomes[i].Count != r.Outcomes[j].Count {
			return r.Outcomes[i].Count > r.Outcomes[j].Count
		}
		return r.Outcomes[i].Key < r.Outcomes[j].Key
	})
}

// Run stress-executes t with opts. See RunContext.
func Run(t *litmus.Test, opts Options) (*Report, error) {
	return RunContext(context.Background(), t, opts)
}

// RunContext stress-executes t, honoring ctx between batches: a cancelled
// run returns the partial report with Interrupted set (and a nil error —
// partial histograms are still observations).
func RunContext(ctx context.Context, t *litmus.Test, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if opts.Mode == ModePlain && RaceEnabled {
		return nil, ErrPlainUnderRace
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	ct, err := compile(t, opts.Mode)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Test:    t.Name,
		Mode:    opts.Mode.String(),
		Seed:    opts.Seed,
		Threads: ct.numThreads,
		Batch:   opts.Batch,
	}
	rep.Stages.Compile = time.Since(t0)
	if err := run(ctx, ct, opts, rep, t0); err != nil {
		return nil, err
	}
	rep.sortOutcomes()
	rep.Elapsed = time.Since(t0)
	return rep, nil
}
