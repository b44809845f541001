package server

import (
	"context"
	"errors"
	"sync"

	"memsynth/internal/cluster"
	"memsynth/internal/memmodel"
	"memsynth/internal/store"
	"memsynth/internal/synth"
)

// errAbandoned reports an engine run cancelled because every waiter
// disconnected (or the server shut down) before it finished.
var errAbandoned = errors.New("server: synthesis abandoned (all waiters gone)")

// flight is one in-flight synthesis shared by every request for the same
// digest. The creating request is the leader: it runs the engine (bounded
// by the server semaphore) and publishes the stored suite; followers just
// wait on done. refs counts waiters still interested — when it reaches
// zero the run's context is cancelled, honoring client disconnects.
type flight struct {
	digest string
	done   chan struct{}
	runCtx context.Context
	cancel context.CancelFunc

	mu   sync.Mutex
	refs int
	last synth.ProgressEvent
	ss   *store.StoredSuite
	err  error
}

// snapshot returns the latest engine progress event (zero until the run
// emits one).
func (f *flight) snapshot() synth.ProgressEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last
}

// observe records a progress event; it is the engine's Options.Progress
// sink, shared by every waiter (and async jobs polling the flight).
func (f *flight) observe(ev synth.ProgressEvent) {
	f.mu.Lock()
	f.last = ev
	f.mu.Unlock()
}

// release drops one waiter reference; the last leaver cancels the run.
func (f *flight) release() {
	f.mu.Lock()
	f.refs--
	cancel := f.refs == 0
	f.mu.Unlock()
	if cancel {
		f.cancel()
	}
}

// flightGroup deduplicates concurrent synthesis runs by digest.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// join returns the flight for digest, creating it when absent. created
// reports whether the caller is the leader and must run the engine.
func (g *flightGroup) join(digest string, newCtx func() (context.Context, context.CancelFunc)) (f *flight, created bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[digest]; ok {
		f.mu.Lock()
		f.refs++
		f.mu.Unlock()
		return f, false
	}
	runCtx, cancel := newCtx()
	f = &flight{digest: digest, done: make(chan struct{}), refs: 1, runCtx: runCtx, cancel: cancel}
	g.m[digest] = f
	return f, true
}

// forget removes a completed flight so later requests start fresh (they
// will hit the store instead).
func (g *flightGroup) forget(digest string) {
	g.mu.Lock()
	delete(g.m, digest)
	g.mu.Unlock()
}

// synthesize returns the stored suite for (model, opts): from the store
// when present (a hit), otherwise by running the engine exactly once per
// digest no matter how many identical requests arrive concurrently.
// attach, when non-nil, receives the flight (hit paths pass nothing) so
// async jobs can surface live progress. The returned cached flag reports
// whether the suite was served without an engine run from this call's
// perspective (store hit only; coalesced followers report cached=false,
// matching "the request did trigger/await synthesis").
func (s *Server) synthesize(ctx context.Context, model memmodel.Model, opts synth.Options, digest string, attach func(*flight)) (ss *store.StoredSuite, cached bool, err error) {
	// The lookup reads through the peer cache tier when one is wired
	// (worker nodes pointing at the coordinator's store): a peer hit is
	// persisted locally and served as a cache hit — synthesis is the
	// last resort.
	if ss, fromPeer, err := s.store.GetThrough(ctx, digest, s.peer); err == nil {
		s.metrics.hits.Add(1)
		if fromPeer {
			s.metrics.peerHits.Add(1)
		}
		return ss, true, nil
	} else if !errors.Is(err, store.ErrNotFound) {
		if s.peer == nil {
			return nil, false, err
		}
		// An unreachable (or misbehaving) peer must never take down
		// synthesis; degrade to a plain miss and compute locally.
		s.logf("peer read-through failed for %.12s: %v", digest, err)
	}
	s.metrics.misses.Add(1)

	f, leader := s.flights.join(digest, func() (context.Context, context.CancelFunc) {
		return context.WithCancel(s.baseCtx)
	})
	if attach != nil {
		attach(f)
	}
	if leader {
		go s.lead(f, model, opts)
	} else {
		s.metrics.coalesced.Add(1)
	}

	select {
	case <-f.done:
		return f.ss, false, f.err
	case <-ctx.Done():
		f.release()
		return nil, false, ctx.Err()
	}
}

// lead runs the engine for flight f and publishes the result. It is the
// only goroutine that writes f.ss/f.err before done is closed.
func (s *Server) lead(f *flight, model memmodel.Model, opts synth.Options) {
	defer close(f.done)
	defer s.flights.forget(f.digest)

	// Coordinator mode: distribute the run across the worker fleet. The
	// cluster path sits before the local engine semaphore — the compute
	// happens on workers, so holding a local run slot would be wrong.
	// An empty fleet or non-shippable model falls back to the local
	// engine; saturation propagates to the client as backpressure (429).
	if s.cluster != nil {
		res, err := s.cluster.Synthesize(f.runCtx, model, opts, f.observe)
		switch {
		case err == nil:
			s.metrics.admitFast.Add(int64(res.Stats.ExecutionsFast))
			f.ss, f.err = s.store.Put(res)
			return
		case errors.Is(err, cluster.ErrSaturated):
			f.err = err
			return
		case f.runCtx.Err() != nil:
			f.err = errAbandoned
			return
		case errors.Is(err, cluster.ErrNoWorkers), errors.Is(err, cluster.ErrNotDistributable):
			s.logf("cluster: local fallback for %.12s: %v", f.digest, err)
		default:
			s.logf("cluster: synthesis of %.12s failed (%v); falling back to local run", f.digest, err)
		}
	}

	// Bound concurrent engine runs; give up if the run is cancelled (all
	// waiters gone or server closing) while still queued.
	select {
	case s.sem <- struct{}{}:
	case <-f.runCtx.Done():
		f.err = errAbandoned
		return
	}
	defer func() { <-s.sem }()

	s.metrics.synthRuns.Add(1)
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)

	opts.Progress = f.observe
	res, err := s.synthFn(f.runCtx, model, opts)
	switch {
	case err != nil:
		f.err = err
	case res.Stats.Interrupted:
		f.err = errAbandoned
	default:
		s.metrics.admitFast.Add(int64(res.Stats.ExecutionsFast))
		f.ss, f.err = s.store.Put(res)
	}
}
