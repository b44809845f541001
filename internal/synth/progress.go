package synth

import (
	"sync"
	"time"
)

// Progress event phases. Generate and Explore mark per-size stage
// transitions; Tick is a periodic counter snapshot; Done is the final
// event (emitted exactly once, after merging, including on interruption).
const (
	PhaseGenerate = "generate"
	PhaseExplore  = "explore"
	PhaseTick     = "tick"
	PhaseDone     = "done"
)

// ProgressEvent is one streamed engine observation: the run's Stats at
// that moment, tagged with the model, phase and size. Counters are
// cumulative across the whole run and monotonically non-decreasing from
// event to event; the done event carries the run's final Stats. It is
// also the JSON line of a cluster shard's progress stream.
type ProgressEvent struct {
	// Model is the memory model being synthesized.
	Model string `json:"model"`
	// Phase is one of PhaseGenerate, PhaseExplore, PhaseTick, PhaseDone.
	Phase string `json:"phase"`
	// Size is the last instruction count started. For the done event
	// it is MaxEvents only when the run completed: an interrupted run
	// reports the size it stopped in.
	Size int `json:"size"`
	Stats
}

// progressSink serializes ProgressEvent delivery: phase events come from
// the coordinating goroutine and ticks from a ticker goroutine, so the
// user callback is guarded by a mutex to guarantee sequential invocation.
// The done flag makes PhaseDone terminal: the ticker goroutine races the
// coordinator's final emit, and a tick that loses that race is dropped
// rather than delivered after the done event.
type progressSink struct {
	mu   sync.Mutex
	fn   func(ProgressEvent)
	e    *engine
	done bool
}

func (p *progressSink) emit(phase string, st Stats) {
	if p == nil || p.fn == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return
	}
	p.done = phase == PhaseDone
	p.fn(ProgressEvent{
		Model: p.e.model.Name(),
		Phase: phase,
		Size:  int(p.e.size.Load()),
		Stats: st,
	})
}

// loop emits periodic tick events until stop is closed.
func (p *progressSink) loop(interval time.Duration, stop <-chan struct{}) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			p.emit(PhaseTick, p.e.snapshot())
		case <-stop:
			return
		}
	}
}
