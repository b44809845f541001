package synth

import (
	"fmt"
	"runtime"
	"time"
)

// Options bounds the synthesis search space and configures the engine.
type Options struct {
	// MinEvents and MaxEvents bound the instruction count (inclusive).
	// MinEvents defaults to 2. MaxEvents must be set (positive).
	MinEvents, MaxEvents int
	// MaxThreads bounds the thread count (default 4).
	MaxThreads int
	// MaxAddrs bounds the number of distinct memory locations (default 3).
	MaxAddrs int
	// MaxDeps bounds the number of explicit dependency edges (default 2).
	MaxDeps int
	// MaxRMWs bounds the number of RMW pairs (default 1).
	MaxRMWs int
	// Admit selects the fast-admissibility filter (internal/admit), which
	// refutes reads-from assignments that provably cannot extend into a
	// minimal execution before their coherence orders are enumerated. ""
	// or "auto" enables it whenever one of the model's axioms declares
	// an acyclicity graph (memmodel.Acyclic: every builtin but c11) and
	// silently falls back to plain enumeration otherwise, and for
	// CountForbidden runs; "off" disables it everywhere. The filter is
	// refutation-sound — admitted assignments are still enumerated, and
	// every coherence order that keeps the edges admit forced is
	// re-confirmed by the minimality checker — so suites and store digests
	// are byte-identical either way, and Normalize strips the field.
	Admit string
	// Workers fans the per-program work out over this many goroutines
	// (default runtime.NumCPU()). Results are identical for every worker
	// count: dedupe keeps the generation-order-first representative of
	// each symmetry class and results are merged in generation order.
	Workers int
	// CountForbidden additionally counts all distinct forbidden
	// (program, outcome) pairs — the "All Progs" line of paper Fig. 13a.
	// It is off by default because canonicalizing every forbidden
	// execution is expensive. A counting run enumerates exhaustively:
	// the admit filter would skip the outcomes of the reads-from
	// assignments it refutes, so it is off (Result.Admit reports "off").
	CountForbidden bool
	// KeepTrivialFences disables the always-sound pruning of programs
	// with a fence as the first or last instruction of a thread (such a
	// fence orders nothing, so the test cannot be minimal).
	KeepTrivialFences bool
	// KeepIsolatedAddrs disables the pruning of programs containing an
	// address accessed only once or never written. This pruning is only
	// applied for models without syntactic dependencies (where such an
	// access cannot be load-bearing); dependency-based models such as
	// Power keep these programs regardless (e.g. lb+addrs+ww needs them).
	KeepIsolatedAddrs bool
	// Progress, when non-nil, receives streamed engine events: per-size
	// phase transitions and periodic counter snapshots. The callback is
	// never invoked concurrently with itself; it must not block for long
	// (it runs on the engine's progress goroutine and, for phase events,
	// on the coordinating goroutine).
	Progress func(ProgressEvent)
	// ProgressInterval is the period of the "tick" snapshot events
	// (default 500ms; only used when Progress is non-nil).
	ProgressInterval time.Duration
}

// Validate rejects nonsense bounds instead of silently defaulting them.
// Zero values for the optional knobs (MinEvents, MaxThreads, MaxAddrs,
// MaxDeps, MaxRMWs, Workers, ProgressInterval) mean "use the default" and
// are accepted; MaxEvents is mandatory.
func (o Options) Validate() error {
	switch {
	case o.MaxEvents <= 0:
		return fmt.Errorf("synth: Options.MaxEvents must be positive, got %d", o.MaxEvents)
	case o.MinEvents < 0:
		return fmt.Errorf("synth: Options.MinEvents must be non-negative, got %d", o.MinEvents)
	case o.MinEvents > o.MaxEvents:
		return fmt.Errorf("synth: Options.MinEvents (%d) exceeds MaxEvents (%d)", o.MinEvents, o.MaxEvents)
	case o.MaxThreads < 0:
		return fmt.Errorf("synth: Options.MaxThreads must be non-negative, got %d", o.MaxThreads)
	case o.MaxAddrs < 0:
		return fmt.Errorf("synth: Options.MaxAddrs must be non-negative, got %d", o.MaxAddrs)
	case o.MaxDeps < 0:
		return fmt.Errorf("synth: Options.MaxDeps must be non-negative, got %d", o.MaxDeps)
	case o.MaxRMWs < 0:
		return fmt.Errorf("synth: Options.MaxRMWs must be non-negative, got %d", o.MaxRMWs)
	case o.Workers < 0:
		return fmt.Errorf("synth: Options.Workers must be non-negative, got %d", o.Workers)
	case o.ProgressInterval < 0:
		return fmt.Errorf("synth: Options.ProgressInterval must be non-negative, got %v", o.ProgressInterval)
	}
	switch o.Admit {
	case "", "auto", "off":
	default:
		return fmt.Errorf("synth: Options.Admit must be \"\", \"auto\", or \"off\", got %q", o.Admit)
	}
	return nil
}

// Normalize returns o with defaults applied and the engine-tuning knobs
// that do not affect results (Admit, Workers, Progress, ProgressInterval)
// cleared. Two Options values describe the same synthesis output iff their
// normalized forms are equal, which is what content-addressed storage
// (internal/store) digests.
func (o Options) Normalize() Options {
	o = o.withDefaults()
	o.Admit = ""
	o.Workers = 0
	o.Progress = nil
	o.ProgressInterval = 0
	return o
}

func (o Options) withDefaults() Options {
	if o.MinEvents == 0 {
		o.MinEvents = 2
	}
	if o.MaxThreads == 0 {
		o.MaxThreads = 4
	}
	if o.MaxAddrs == 0 {
		o.MaxAddrs = 3
	}
	if o.MaxDeps == 0 {
		o.MaxDeps = 2
	}
	if o.MaxRMWs == 0 {
		o.MaxRMWs = 1
	}
	if o.Workers == 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.ProgressInterval == 0 {
		o.ProgressInterval = 500 * time.Millisecond
	}
	return o
}
