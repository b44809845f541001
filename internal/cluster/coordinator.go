package cluster

import (
	"bufio"
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"memsynth/internal/memmodel"
	"memsynth/internal/store"
	"memsynth/internal/synth"
)

// Config tunes a Coordinator. Zero values select the documented defaults.
type Config struct {
	// Store is ignored. The daemon's server serves the shared cache tier
	// and persists merged results; the coordinator never touches a store.
	//
	// Deprecated: leave it unset.
	Store *store.Store
	// ShardsPerRequest fixes the shard count of every distributed
	// request; 0 shards by the live worker count at submission time.
	ShardsPerRequest int
	// QueueDepth bounds the dispatch queue. A request whose shards would
	// overflow it is rejected with SaturatedError (the server's 429).
	// Default 256.
	QueueDepth int
	// MaxShardRetries bounds re-dispatches of one shard (worker death,
	// hand-back or rejected upload) before the whole request fails.
	// Default 3.
	MaxShardRetries int
	// HeartbeatInterval is the cadence workers are told to report at.
	// Default 2s.
	HeartbeatInterval time.Duration
	// ExpireAfter is the silence after which a worker is declared dead
	// and its shards reassigned. Default 3×HeartbeatInterval.
	ExpireAfter time.Duration
	// PollWait bounds how long a worker's job poll is held open before
	// an empty response. Default 10s.
	PollWait time.Duration
	// Logf receives operational log lines (nil silences them).
	Logf func(format string, args ...any)
}

func (cfg Config) withDefaults() Config {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.MaxShardRetries <= 0 {
		cfg.MaxShardRetries = 3
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 2 * time.Second
	}
	if cfg.ExpireAfter <= 0 {
		cfg.ExpireAfter = 3 * cfg.HeartbeatInterval
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 10 * time.Second
	}
	return cfg
}

// ErrClosed reports a Synthesize against a closed coordinator.
var ErrClosed = errors.New("cluster: coordinator closed")

// Shard lifecycle states.
const (
	sQueued = iota
	sAssigned
	sDone
	sCancelled
)

// shardState is the coordinator's record of one shard job, identity-
// stable across requeues: reassignment mutates the state, never the
// digest, which is what makes duplicate result uploads collapse.
type shardState struct {
	job   ShardJob
	fl    *cflight
	seq   int64
	state int
	// worker is the assignee's ID while state == sAssigned.
	worker     string
	assignedAt time.Time
	retries    int
	// progress is the furthest progress any attempt at the shard has
	// reported: a reassigned shard restarts from zero, and the record
	// keeps the earlier attempt's counters until the new one passes them.
	progress synth.ProgressEvent
}

// cflight is one in-flight distributed request and its one caller.
type cflight struct {
	digest  string
	model   memmodel.Model
	opts    synth.Options
	stride  int
	pending int
	shards  []*shardState
	results []*synth.ShardResult
	// finished flips exactly once (merge dispatch or failure), guarding
	// done from double-close.
	finished bool
	// progress receives the aggregated shard progress (nil drops it).
	progress func(synth.ProgressEvent)
	start    time.Time
	done     chan struct{}
	res      *synth.Result
	err      error
}

// member is one registered worker.
type member struct {
	id       string
	name     string
	lastSeen time.Time
	// shard is the worker's assigned shard, nil while idle: a worker
	// runs one shard at a time.
	shard *shardState
}

// shardQueue is the dispatch queue, ordered by submission sequence: a
// requeued shard keeps its original place ahead of later submissions.
// Entries whose state moved on (cancelled, or completed by a slow
// original worker while requeued) go stale in place and are skipped at
// pop.
type shardQueue []*shardState

func (q shardQueue) Len() int           { return len(q) }
func (q shardQueue) Less(i, j int) bool { return q[i].seq < q[j].seq }
func (q shardQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *shardQueue) Push(x any)        { *q = append(*q, x.(*shardState)) }
func (q *shardQueue) Pop() any {
	old := *q
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return x
}

// Coordinator partitions cold synthesize requests into shard jobs,
// dispatches them to registered workers, and merges the results
// deterministically. It serves the /v1/cluster/* worker API and is
// driven by Synthesize from the daemon's request path.
type Coordinator struct {
	cfg     Config
	mux     *http.ServeMux
	metrics *expvar.Map

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	workers map[string]*member
	shards  map[string]*shardState
	queue   shardQueue
	nQueued int
	flights map[string]*cflight
	// wake is closed and replaced whenever work is enqueued, releasing
	// every held poll.
	wake  chan struct{}
	seq   int64
	idSeq int64
}

// New starts a coordinator: its heartbeat monitor runs immediately and
// Close releases it.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		metrics: new(expvar.Map),
		workers: make(map[string]*member),
		shards:  make(map[string]*shardState),
		flights: make(map[string]*cflight),
		wake:    make(chan struct{}),
	}
	c.baseCtx, c.baseCancel = context.WithCancel(context.Background())
	c.metrics.Init()
	c.metrics.Set("workers_live", expvar.Func(func() any {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.workers)
	}))
	c.metrics.Set("queue_depth", expvar.Func(func() any {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.nQueued
	}))
	c.metrics.Set("flights_active", expvar.Func(func() any {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.flights)
	}))

	c.mux.HandleFunc("POST /v1/cluster/workers", c.handleRegister)
	c.mux.HandleFunc("POST /v1/cluster/workers/{id}/heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("DELETE /v1/cluster/workers/{id}", c.handleDeregister)
	c.mux.HandleFunc("POST /v1/cluster/workers/{id}/poll", c.handlePoll)
	c.mux.HandleFunc("POST /v1/cluster/shards/{digest}/progress", c.handleProgress)
	c.mux.HandleFunc("POST /v1/cluster/shards/{digest}/result", c.handleResult)
	c.mux.HandleFunc("POST /v1/cluster/shards/{digest}/release", c.handleRelease)
	c.mux.HandleFunc("GET /v1/cluster/status", c.handleStatus)

	c.wg.Add(1)
	go c.monitor()
	return c
}

// Close stops the heartbeat monitor and fails every in-flight request
// with ErrClosed so no caller is left waiting.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return
	}
	c.closed = true
	for _, fl := range c.flights {
		c.failFlightLocked(fl, ErrClosed)
	}
	c.mu.Unlock()
	c.baseCancel()
	c.wg.Wait()
}

// ServeHTTP serves the /v1/cluster/* worker API.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// Metrics returns the coordinator's expvar map, for mounting under the
// daemon's /metrics.
func (c *Coordinator) Metrics() expvar.Var { return c.metrics }

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// LiveWorkers returns the current registered (non-expired) worker count.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// distributable extracts the shippable definition of a model: builtins
// travel by name, compiled models by their normalized source.
func distributable(m memmodel.Model) (source, digest, def string, err error) {
	source, digest = memmodel.SourceOf(m)
	if source == "builtin" {
		return source, "", "", nil
	}
	n, ok := m.(interface{ Normalized() string })
	if !ok {
		return "", "", "", ErrNotDistributable
	}
	return source, digest, n.Normalized(), nil
}

// Synthesize runs one request through the cluster: it partitions the
// request into stride shard jobs and waits for the merge. It does not
// consult or write the store, and it does not coalesce: the caller (the
// daemon's single-flight path) owns cache lookup, persistence and
// deduplication, so a digest already in flight is refused — its shard
// digests would collide with the running flight's. progress, when
// non-nil, receives the shards' aggregated progress; it is called with
// the coordinator's lock held, so it must be quick and must not call
// back into the coordinator.
func (c *Coordinator) Synthesize(ctx context.Context, m memmodel.Model, opts synth.Options, progress func(synth.ProgressEvent)) (*synth.Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	source, modelDigest, def, err := distributable(m)
	if err != nil {
		return nil, err
	}
	digest := store.DigestModel(m, opts)

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if c.flights[digest] != nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: request %.12s is already in flight", digest)
	}
	live := len(c.workers)
	if live == 0 {
		c.mu.Unlock()
		return nil, ErrNoWorkers
	}
	stride := c.cfg.ShardsPerRequest
	if stride <= 0 {
		stride = live
	}
	if c.nQueued+stride > c.cfg.QueueDepth {
		c.metrics.Add("saturated_rejects", 1)
		retry := time.Second + time.Duration(c.nQueued/max(live, 1))*time.Second
		if retry > 30*time.Second {
			retry = 30 * time.Second
		}
		c.mu.Unlock()
		return nil, &SaturatedError{RetryAfter: retry}
	}

	fl := &cflight{
		digest:   digest,
		model:    m,
		opts:     opts,
		stride:   stride,
		pending:  stride,
		results:  make([]*synth.ShardResult, stride),
		progress: progress,
		start:    time.Now(),
		done:     make(chan struct{}),
	}
	ro := store.FromSynthOptions(opts)
	for i := 0; i < stride; i++ {
		c.seq++
		ss := &shardState{
			job: ShardJob{
				ShardDigest:   ShardDigest(digest, i, stride, synth.EngineVersion),
				RequestDigest: digest,
				EngineVersion: synth.EngineVersion,
				Model:         m.Name(),
				ModelSource:   source,
				ModelDigest:   modelDigest,
				ModelDef:      def,
				Options:       ro,
				Admit:         opts.Admit,
				Index:         i,
				Stride:        stride,
			},
			fl:  fl,
			seq: c.seq,
		}
		fl.shards = append(fl.shards, ss)
		c.shards[ss.job.ShardDigest] = ss
		c.enqueueLocked(ss)
	}
	c.flights[digest] = fl
	c.metrics.Add("requests_distributed", 1)
	c.mu.Unlock()

	c.logf("cluster: request %.12s: %d shards queued (model %s)", digest, stride, m.Name())
	return c.wait(ctx, fl)
}

// wait blocks the caller on its flight. A caller that gives up cancels
// the flight (queued shards dropped; results from still-assigned shards
// are discarded on arrival).
func (c *Coordinator) wait(ctx context.Context, fl *cflight) (*synth.Result, error) {
	select {
	case <-fl.done:
		return fl.res, fl.err
	case <-ctx.Done():
		c.mu.Lock()
		if !fl.finished {
			c.metrics.Add("requests_abandoned", 1)
			c.failFlightLocked(fl, ctx.Err())
		}
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// enqueueLocked queues a shard for dispatch and wakes held polls.
func (c *Coordinator) enqueueLocked(ss *shardState) {
	ss.state = sQueued
	ss.worker = ""
	heap.Push(&c.queue, ss)
	c.nQueued++
	close(c.wake)
	c.wake = make(chan struct{})
}

// popLocked dequeues the next dispatchable shard, skipping entries whose
// state moved on while queued.
func (c *Coordinator) popLocked() *shardState {
	for c.queue.Len() > 0 {
		ss := heap.Pop(&c.queue).(*shardState)
		if ss.state != sQueued {
			continue
		}
		c.nQueued--
		return ss
	}
	return nil
}

// requeueLocked returns an assigned shard to the queue after a worker
// death, a hand-back or a rejected upload; past the retry budget it fails
// the whole flight.
func (c *Coordinator) requeueLocked(ss *shardState, counter string) {
	if ss.state != sAssigned {
		return
	}
	if w := c.workers[ss.worker]; w != nil {
		w.shard = nil
	}
	c.metrics.Add(counter, 1)
	ss.retries++
	if ss.retries > c.cfg.MaxShardRetries {
		c.logf("cluster: shard %.12s (%d/%d) exceeded %d retries; failing request %.12s",
			ss.job.ShardDigest, ss.job.Index, ss.job.Stride, c.cfg.MaxShardRetries, ss.fl.digest)
		c.failFlightLocked(ss.fl, fmt.Errorf("cluster: shard %d/%d failed after %d attempts",
			ss.job.Index, ss.job.Stride, ss.retries))
		return
	}
	c.metrics.Add("shards_retried", 1)
	c.enqueueLocked(ss)
}

// failFlightLocked finishes a flight with an error: queued shards are
// cancelled, assigned ones orphaned (their uploads answered 410), and
// the caller unblocked.
func (c *Coordinator) failFlightLocked(fl *cflight, err error) {
	if fl.finished {
		return
	}
	fl.finished = true
	fl.err = err
	delete(c.flights, fl.digest)
	for _, ss := range fl.shards {
		switch ss.state {
		case sQueued:
			ss.state = sCancelled
			c.nQueued--
			delete(c.shards, ss.job.ShardDigest)
		case sAssigned:
			ss.state = sCancelled
			if w := c.workers[ss.worker]; w != nil {
				w.shard = nil
			}
			delete(c.shards, ss.job.ShardDigest)
		}
	}
	close(fl.done)
}

// finalize merges a complete shard set and publishes the flight result.
func (c *Coordinator) finalize(fl *cflight) {
	res, err := synth.MergeShards(fl.model, fl.opts, fl.results)
	c.mu.Lock()
	fl.res, fl.err = res, err
	delete(c.flights, fl.digest)
	for _, ss := range fl.shards {
		delete(c.shards, ss.job.ShardDigest)
	}
	if err != nil {
		c.metrics.Add("merge_failures", 1)
	} else {
		c.metrics.Add("merges", 1)
	}
	c.mu.Unlock()
	close(fl.done)
	if err != nil {
		c.logf("cluster: request %.12s: merge failed: %v", fl.digest, err)
	} else {
		c.logf("cluster: request %.12s: merged %d shards, %d entries in %s",
			fl.digest, fl.stride, res.Stats.Entries, time.Since(fl.start).Round(time.Millisecond))
	}
}

// monitor expires silent workers and reassigns their shards.
func (c *Coordinator) monitor() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-ticker.C:
		}
		c.mu.Lock()
		now := time.Now()
		for id, w := range c.workers {
			if now.Sub(w.lastSeen) <= c.cfg.ExpireAfter {
				continue
			}
			delete(c.workers, id)
			c.metrics.Add("workers_expired", 1)
			c.logf("cluster: worker %s (%s) expired after %s silence",
				id, w.name, now.Sub(w.lastSeen).Round(time.Millisecond))
			if w.shard != nil {
				c.requeueLocked(w.shard, "shards_stolen")
			}
		}
		c.mu.Unlock()
	}
}

// ---- worker-facing HTTP handlers ----

func clusterError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func clusterJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		clusterError(w, http.StatusBadRequest, "bad register body: %v", err)
		return
	}
	// A version-skewed worker would compute different winner partitions;
	// refuse it at the door rather than corrupt a merge later.
	if req.EngineVersion != synth.EngineVersion {
		clusterError(w, http.StatusConflict,
			"engine version %q incompatible with coordinator %q", req.EngineVersion, synth.EngineVersion)
		return
	}
	if req.Name == "" {
		req.Name = "worker"
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		clusterError(w, http.StatusServiceUnavailable, "coordinator closed")
		return
	}
	c.idSeq++
	id := fmt.Sprintf("w%d", c.idSeq)
	c.workers[id] = &member{
		id:       id,
		name:     req.Name,
		lastSeen: time.Now(),
	}
	c.metrics.Add("workers_registered", 1)
	c.mu.Unlock()
	c.logf("cluster: worker %s registered (%s)", id, req.Name)
	clusterJSON(w, http.StatusOK, RegisterResponse{
		WorkerID:            id,
		HeartbeatIntervalMS: c.cfg.HeartbeatInterval.Milliseconds(),
		PollWaitMS:          c.cfg.PollWait.Milliseconds(),
	})
}

// touch refreshes a worker's liveness, reporting whether it is known.
func (c *Coordinator) touch(id string) bool {
	if id == "" {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[id]
	if w == nil {
		return false
	}
	w.lastSeen = time.Now()
	return true
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !c.touch(r.PathValue("id")) {
		// Expired or unknown: the worker re-registers and carries on.
		clusterError(w, http.StatusNotFound, "unknown worker %s", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.mu.Lock()
	if m := c.workers[id]; m != nil {
		delete(c.workers, id)
		if m.shard != nil {
			c.requeueLocked(m.shard, "shards_released")
		}
	}
	c.mu.Unlock()
	c.logf("cluster: worker %s deregistered", id)
	w.WriteHeader(http.StatusNoContent)
}

// handlePoll is the dispatch path: a long-poll that blocks until a shard
// is available, the hold expires (204), or the worker vanishes (404). A
// worker that still holds a shard gets 204: workers run one at a time.
// Polls, heartbeats, and progress lines all refresh liveness, so a busy
// worker is never expired for being busy.
func (c *Coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	deadline := time.Now().Add(c.cfg.PollWait)
	for {
		c.mu.Lock()
		m := c.workers[id]
		if m == nil {
			c.mu.Unlock()
			clusterError(w, http.StatusNotFound, "unknown worker %s", id)
			return
		}
		m.lastSeen = time.Now()
		if m.shard != nil {
			c.mu.Unlock()
			w.WriteHeader(http.StatusNoContent)
			return
		}
		if ss := c.popLocked(); ss != nil {
			ss.state = sAssigned
			ss.worker = id
			ss.assignedAt = time.Now()
			m.shard = ss
			job := ss.job
			c.metrics.Add("shards_dispatched", 1)
			c.mu.Unlock()
			clusterJSON(w, http.StatusOK, job)
			return
		}
		wake := c.wake
		c.mu.Unlock()

		wait := time.Until(deadline)
		if wait <= 0 {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		timer := time.NewTimer(wait)
		select {
		case <-wake:
			timer.Stop()
		case <-timer.C:
			w.WriteHeader(http.StatusNoContent)
			return
		case <-r.Context().Done():
			timer.Stop()
			return
		case <-c.baseCtx.Done():
			timer.Stop()
			w.WriteHeader(http.StatusNoContent)
			return
		}
	}
}

// handleProgress consumes a shard's NDJSON progress stream, updating the
// per-shard snapshot and forwarding an aggregated view to the flight's
// progress func.
func (c *Coordinator) handleProgress(w http.ResponseWriter, r *http.Request) {
	dg := r.PathValue("digest")
	workerID := r.URL.Query().Get("worker")
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev synth.ProgressEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			continue
		}
		c.noteProgress(dg, workerID, ev)
	}
	w.WriteHeader(http.StatusNoContent)
}

// noteProgress folds one progress line into its shard's record and
// forwards the flight's aggregate: the shards' records folded by
// synth.MergeStats, at the flight's own elapsed time. Only the shard's
// current holder reports on it; a line from a presumed-dead worker whose
// shard was requeued is stale and ignored. Every shard record only
// grows, and the aggregate is forwarded under the lock, so the counters
// the flight's progress func sees never go backwards.
func (c *Coordinator) noteProgress(dg, workerID string, ev synth.ProgressEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m := c.workers[workerID]; m != nil {
		m.lastSeen = time.Now()
	}
	ss := c.shards[dg]
	if ss == nil || ss.worker == "" || ss.worker != workerID || ss.fl.finished || ss.fl.progress == nil {
		return
	}
	ss.progress.Size = max(ss.progress.Size, ev.Size)
	ss.progress.Stats = synth.MaxStats(ss.progress.Stats, ev.Stats)
	fl := ss.fl
	agg := synth.ProgressEvent{Model: fl.model.Name(), Phase: synth.PhaseTick}
	parts := make([]synth.Stats, len(fl.shards))
	for i, s := range fl.shards {
		parts[i] = s.progress.Stats
		agg.Size = max(agg.Size, s.progress.Size)
	}
	agg.Stats = synth.MergeStats(parts...)
	// A drained attempt reports itself interrupted, but the flight runs
	// on; its clock starts at submission.
	agg.Elapsed = time.Since(fl.start)
	agg.Interrupted = false
	fl.progress(agg)
}

// handleResult accepts a shard-result upload, idempotent by shard
// digest: the first complete upload wins, duplicates are acknowledged
// without effect, and uploads for cancelled or unknown shards get 410. A
// rejected upload (400 or 422) is never merged, and the shard goes back
// to the queue if the uploader holds it, so the worker is free again and
// the retry budget fails a shard that keeps coming back bad.
func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	dg := r.PathValue("digest")
	workerID := r.URL.Query().Get("worker")
	sr, err := decodeUpload(r, dg)
	if err != nil {
		c.rejectUpload(dg, workerID)
		clusterError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if sr.Stats.Interrupted {
		// Interrupted shards are never merged; the worker should have
		// released the shard instead.
		c.rejectUpload(dg, workerID)
		clusterJSON(w, http.StatusUnprocessableEntity, ResultResponse{Accepted: false, Reason: "interrupted shard result"})
		return
	}

	c.mu.Lock()
	if m := c.workers[workerID]; m != nil {
		m.lastSeen = time.Now()
	}
	ss := c.shards[dg]
	if ss == nil || ss.state == sCancelled {
		if ss != nil {
			delete(c.shards, dg)
		}
		c.mu.Unlock()
		clusterJSON(w, http.StatusGone, ResultResponse{Accepted: false, Reason: "unknown or cancelled shard"})
		return
	}
	if ss.state == sDone {
		c.metrics.Add("shard_duplicates", 1)
		c.mu.Unlock()
		clusterJSON(w, http.StatusOK, ResultResponse{Accepted: true, Duplicate: true})
		return
	}
	if sr.Shard.Index != ss.job.Index || sr.Shard.Stride != ss.job.Stride {
		c.mu.Unlock()
		c.rejectUpload(dg, workerID)
		clusterError(w, http.StatusBadRequest, "shard coordinates (%d,%d) do not match job (%d,%d)",
			sr.Shard.Index, sr.Shard.Stride, ss.job.Index, ss.job.Stride)
		return
	}
	// Accept from either state: sAssigned is the normal path; sQueued
	// means a presumed-dead worker finished after its shard was requeued
	// for reassignment — the stale queue entry is skipped at pop.
	if ss.state == sAssigned {
		if m := c.workers[ss.worker]; m != nil {
			m.shard = nil
			c.metrics.Add("worker_shards_done_"+m.name, 1)
		}
	} else {
		c.nQueued--
	}
	ss.state = sDone
	fl := ss.fl
	fl.results[ss.job.Index] = sr
	fl.pending--
	finalize := fl.pending == 0 && !fl.finished
	if finalize {
		fl.finished = true
	}
	c.metrics.Add("shards_completed", 1)
	c.mu.Unlock()

	if finalize {
		go c.finalize(fl)
	}
	clusterJSON(w, http.StatusOK, ResultResponse{Accepted: true})
}

// decodeUpload reads and decodes a shard-result body posted for shard
// digest dg.
func decodeUpload(r *http.Request, dg string) (*synth.ShardResult, error) {
	var wire WireShardResult
	if err := json.NewDecoder(r.Body).Decode(&wire); err != nil {
		return nil, fmt.Errorf("bad shard result body: %v", err)
	}
	if wire.ShardDigest != "" && wire.ShardDigest != dg {
		return nil, fmt.Errorf("body shard digest %.12s does not match URL %.12s", wire.ShardDigest, dg)
	}
	wire.ShardDigest = dg
	return DecodeShardResult(&wire)
}

// rejectUpload requeues shard dg, counted as shards_rejected, after its
// upload from workerID was refused, if workerID holds it. An upload from
// anyone else leaves the holder's run alone.
func (c *Coordinator) rejectUpload(dg, workerID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ss := c.shards[dg]; ss != nil && ss.state == sAssigned && ss.worker == workerID {
		c.requeueLocked(ss, "shards_rejected")
	}
}

// handleRelease is the voluntary hand-back: a draining (or incapable)
// worker returns an assigned shard for immediate reassignment.
func (c *Coordinator) handleRelease(w http.ResponseWriter, r *http.Request) {
	dg := r.PathValue("digest")
	workerID := r.URL.Query().Get("worker")
	var body struct {
		Reason string `json:"reason"`
	}
	json.NewDecoder(r.Body).Decode(&body)

	c.mu.Lock()
	if m := c.workers[workerID]; m != nil {
		m.lastSeen = time.Now()
	}
	ss := c.shards[dg]
	if ss != nil && ss.state == sAssigned && (workerID == "" || ss.worker == workerID) {
		c.requeueLocked(ss, "shards_released")
	}
	c.mu.Unlock()
	c.logf("cluster: shard %.12s released by %s (%s)", dg, workerID, body.Reason)
	w.WriteHeader(http.StatusNoContent)
}

// handleStatus reports a point-in-time cluster snapshot.
func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	type workerStatus struct {
		ID           string `json:"id"`
		Name         string `json:"name"`
		LastSeenMS   int64  `json:"last_seen_ms_ago"`
		AssignedJobs int    `json:"assigned"`
	}
	type flightStatus struct {
		Digest  string `json:"digest"`
		Model   string `json:"model"`
		Stride  int    `json:"stride"`
		Pending int    `json:"pending"`
	}
	var out struct {
		Workers    []workerStatus `json:"workers"`
		QueueDepth int            `json:"queue_depth"`
		Flights    []flightStatus `json:"flights"`
	}
	c.mu.Lock()
	now := time.Now()
	for _, m := range c.workers {
		ws := workerStatus{ID: m.id, Name: m.name, LastSeenMS: now.Sub(m.lastSeen).Milliseconds()}
		if m.shard != nil {
			ws.AssignedJobs = 1
		}
		out.Workers = append(out.Workers, ws)
	}
	out.QueueDepth = c.nQueued
	for _, fl := range c.flights {
		out.Flights = append(out.Flights, flightStatus{
			Digest:  fl.digest,
			Model:   fl.model.Name(),
			Stride:  fl.stride,
			Pending: fl.pending,
		})
	}
	c.mu.Unlock()
	sort.Slice(out.Workers, func(i, j int) bool { return out.Workers[i].ID < out.Workers[j].ID })
	sort.Slice(out.Flights, func(i, j int) bool { return out.Flights[i].Digest < out.Flights[j].Digest })
	clusterJSON(w, http.StatusOK, out)
}
