package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"memsynth/internal/cat"
	"memsynth/internal/memmodel"
	"memsynth/internal/synth"
)

// WorkerConfig tunes a Worker.
type WorkerConfig struct {
	// CoordinatorURL is the coordinator's base URL (e.g.
	// "http://coord:8080").
	CoordinatorURL string
	// Name labels the worker in coordinator logs and metrics.
	Name string
	// EngineWorkers is synth.Options.Workers for each shard run (0 =
	// engine default, one per CPU).
	EngineWorkers int
	// DrainGrace is how long a SIGTERM'd worker lets its running shard
	// finish before cancelling and handing it back. Default 20s.
	DrainGrace time.Duration
	// Client overrides the HTTP client (tests); nil uses a default with
	// no overall timeout (long-polls hold connections open).
	Client *http.Client
	// Logf receives operational log lines (nil silences them).
	Logf func(format string, args ...any)
}

// Worker is one cluster compute node: it registers with the coordinator,
// then polls for one shard job at a time, runs it through
// synth.SynthesizeShard (streaming progress back), and uploads the
// result. On shutdown it drains: the running shard gets DrainGrace to
// finish; past that it is cancelled and handed back for immediate
// reassignment, so a drain never loses or double-merges a shard.
type Worker struct {
	cfg    WorkerConfig
	client *http.Client

	// synthFn is the shard engine, swappable in tests to pin drain
	// behavior without multi-second synthesis runs.
	synthFn func(ctx context.Context, m memmodel.Model, opts synth.Options, shard synth.ShardSpec) (*synth.ShardResult, error)

	mu         sync.Mutex
	id         string
	hbInterval time.Duration
}

// NewWorker constructs a worker; Run starts it.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 20 * time.Second
	}
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	return &Worker{
		cfg:     cfg,
		client:  client,
		synthFn: synth.SynthesizeShard,
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

func (w *Worker) url(path string) string { return w.cfg.CoordinatorURL + path }

// postJSON sends a JSON body and decodes a JSON response into out (when
// non-nil and the response has a body).
func (w *Worker) doJSON(ctx context.Context, method, path string, in, out any) (int, error) {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.url(path), body)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
		return resp.StatusCode, nil
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return resp.StatusCode, nil
}

// register announces the worker and adopts the coordinator's cadence.
func (w *Worker) register(ctx context.Context) error {
	req := RegisterRequest{Name: w.cfg.Name, EngineVersion: synth.EngineVersion}
	var resp RegisterResponse
	code, err := w.doJSON(ctx, http.MethodPost, "/v1/cluster/workers", req, &resp)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("cluster: register: coordinator answered %d", code)
	}
	w.mu.Lock()
	w.id = resp.WorkerID
	w.hbInterval = time.Duration(resp.HeartbeatIntervalMS) * time.Millisecond
	if w.hbInterval <= 0 {
		w.hbInterval = 2 * time.Second
	}
	w.mu.Unlock()
	w.logf("cluster: registered as %s with %s", resp.WorkerID, w.cfg.CoordinatorURL)
	return nil
}

func (w *Worker) workerID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// Run drives the worker until ctx is cancelled, then drains and
// deregisters. It returns nil after a clean drain.
func (w *Worker) Run(ctx context.Context) error {
	// Registration retries until the coordinator is reachable — workers
	// routinely start before the coordinator in a cluster bring-up.
	for {
		err := w.register(ctx)
		if err == nil {
			break
		}
		w.logf("cluster: register failed (%v); retrying", err)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(500 * time.Millisecond):
		}
	}

	// Heartbeats outlive ctx: a draining worker must stay live to the
	// coordinator until its shard is uploaded or handed back.
	hbCtx, hbCancel := context.WithCancel(context.Background())
	defer hbCancel()
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		w.heartbeatLoop(hbCtx)
	}()

	for ctx.Err() == nil {
		job, ok, err := w.poll(ctx)
		switch {
		case ok:
			w.runJob(ctx, job)
		case err != nil && ctx.Err() == nil:
			w.logf("cluster: poll failed: %v", err)
			select {
			case <-ctx.Done():
			case <-time.After(500 * time.Millisecond):
			}
		}
	}

	w.deregister()
	hbCancel()
	hbWG.Wait()
	w.logf("cluster: worker %s drained", w.workerID())
	return nil
}

func (w *Worker) heartbeatLoop(ctx context.Context) {
	w.mu.Lock()
	interval := w.hbInterval
	w.mu.Unlock()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		id := w.workerID()
		code, err := w.doJSON(ctx, http.MethodPost, "/v1/cluster/workers/"+url.PathEscape(id)+"/heartbeat", nil, nil)
		if err != nil {
			continue
		}
		if code == http.StatusNotFound {
			// The coordinator expired us (a long GC pause, a network
			// blip past ExpireAfter); re-register under a fresh ID.
			if err := w.register(ctx); err == nil {
				ticker.Reset(w.hbInterval)
			}
		}
	}
}

// poll asks for one shard job; ok reports whether one was assigned.
func (w *Worker) poll(ctx context.Context) (ShardJob, bool, error) {
	var job ShardJob
	id := w.workerID()
	code, err := w.doJSON(ctx, http.MethodPost, "/v1/cluster/workers/"+url.PathEscape(id)+"/poll", nil, &job)
	if err != nil {
		return job, false, err
	}
	switch code {
	case http.StatusOK:
		return job, true, nil
	case http.StatusNoContent:
		return job, false, nil
	case http.StatusNotFound:
		if err := w.register(ctx); err != nil {
			return job, false, err
		}
		return job, false, nil
	default:
		return job, false, fmt.Errorf("cluster: poll: coordinator answered %d", code)
	}
}

// buildModel reconstructs the job's model: builtins by name, compiled
// models from the shipped normalized definition, cross-checked against
// the job's definition digest.
func (w *Worker) buildModel(job ShardJob) (memmodel.Model, error) {
	if job.ModelSource == "builtin" {
		return memmodel.ByName(job.Model)
	}
	if job.ModelSource != "cat" {
		return nil, fmt.Errorf("cluster: unsupported model source %q", job.ModelSource)
	}
	m, err := cat.Compile(job.ModelDef)
	if err != nil {
		return nil, fmt.Errorf("cluster: compile shipped model %q: %w", job.Model, err)
	}
	if job.ModelDigest != "" && m.SourceDigest() != job.ModelDigest {
		return nil, fmt.Errorf("cluster: shipped model %q compiles to digest %s, job wants %s",
			job.Model, m.SourceDigest(), job.ModelDigest)
	}
	return m, nil
}

// runJob executes one shard job end to end. Failure modes all converge
// on release (hand the shard back for reassignment); only a complete,
// uninterrupted result is uploaded. The shard runs detached from ctx, the
// worker's run context: once ctx is done the shard gets DrainGrace to
// finish before it is cancelled.
func (w *Worker) runJob(ctx context.Context, job ShardJob) {
	if job.EngineVersion != synth.EngineVersion {
		w.release(job, fmt.Sprintf("engine version mismatch: job %q, worker %q", job.EngineVersion, synth.EngineVersion))
		return
	}
	m, err := w.buildModel(job)
	if err != nil {
		w.release(job, err.Error())
		return
	}

	shardCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-ctx.Done():
		case <-shardCtx.Done():
			return
		}
		grace := time.NewTimer(w.cfg.DrainGrace)
		defer grace.Stop()
		select {
		case <-grace.C:
			w.logf("cluster: drain grace expired; cancelling shard %.12s", job.ShardDigest)
			cancel()
		case <-shardCtx.Done():
		}
	}()

	opts := job.Options.SynthOptions()
	opts.Admit = job.Admit
	opts.Workers = w.cfg.EngineWorkers
	stream := w.startProgress(shardCtx, job)
	opts.Progress = stream.observe

	start := time.Now()
	sr, err := w.synthFn(shardCtx, m, opts, synth.ShardSpec{Index: job.Index, Stride: job.Stride})
	stream.close()
	if err != nil {
		w.release(job, err.Error())
		return
	}
	if sr.Stats.Interrupted {
		w.release(job, "interrupted (worker draining)")
		return
	}
	w.logf("cluster: shard %.12s (%d/%d, %s) done in %s: %d entries",
		job.ShardDigest, job.Index, job.Stride, job.Model,
		time.Since(start).Round(time.Millisecond), len(sr.Entries))
	w.upload(job, sr)
}

// upload posts the shard result, retrying transient failures briefly; a
// persistent failure is left to the coordinator's heartbeat reassignment.
func (w *Worker) upload(job ShardJob, sr *synth.ShardResult) {
	wire := EncodeShardResult(job.ShardDigest, sr)
	path := "/v1/cluster/shards/" + url.PathEscape(job.ShardDigest) + "/result?worker=" + url.QueryEscape(w.workerID())
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		var resp ResultResponse
		code, err := w.doJSON(context.Background(), http.MethodPost, path, wire, &resp)
		if err == nil {
			switch {
			case code == http.StatusOK && resp.Duplicate:
				w.logf("cluster: shard %.12s was already merged (duplicate upload)", job.ShardDigest)
				return
			case code == http.StatusOK && resp.Accepted:
				return
			case code == http.StatusGone:
				w.logf("cluster: shard %.12s no longer wanted (request cancelled)", job.ShardDigest)
				return
			default:
				w.logf("cluster: shard %.12s upload rejected (%d: %s)", job.ShardDigest, code, resp.Reason)
				return
			}
		}
		lastErr = err
		time.Sleep(time.Duration(attempt+1) * 200 * time.Millisecond)
	}
	w.logf("cluster: shard %.12s upload failed: %v (coordinator will reassign)", job.ShardDigest, lastErr)
}

// release hands a shard back to the coordinator for reassignment.
func (w *Worker) release(job ShardJob, reason string) {
	path := "/v1/cluster/shards/" + url.PathEscape(job.ShardDigest) + "/release?worker=" + url.QueryEscape(w.workerID())
	body := map[string]string{"reason": reason}
	if _, err := w.doJSON(context.Background(), http.MethodPost, path, body, nil); err != nil {
		w.logf("cluster: release of shard %.12s failed: %v (coordinator will reassign on expiry)", job.ShardDigest, err)
		return
	}
	w.logf("cluster: shard %.12s handed back: %s", job.ShardDigest, reason)
}

// deregister announces a clean exit, releasing anything still assigned.
func (w *Worker) deregister() {
	id := w.workerID()
	if id == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	w.doJSON(ctx, http.MethodDelete, "/v1/cluster/workers/"+url.PathEscape(id), nil, nil)
}

// progressStream ships engine progress events to the coordinator as one
// chunked NDJSON POST. Events are dropped rather than ever blocking the
// engine: the callback feeds a small buffered channel that a dedicated
// goroutine drains into the request body.
type progressStream struct {
	ch     chan synth.ProgressEvent
	done   chan struct{}
	closeC func()
}

func (w *Worker) startProgress(ctx context.Context, job ShardJob) *progressStream {
	pr, pw := io.Pipe()
	ps := &progressStream{
		ch:   make(chan synth.ProgressEvent, 8),
		done: make(chan struct{}),
	}
	var once sync.Once
	ps.closeC = func() {
		once.Do(func() {
			close(ps.ch)
			<-ps.done
		})
	}

	path := "/v1/cluster/shards/" + url.PathEscape(job.ShardDigest) + "/progress?worker=" + url.QueryEscape(w.workerID())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url(path), pr)
	if err != nil {
		close(ps.done)
		ps.ch = nil
		return ps
	}
	req.Header.Set("Content-Type", "application/x-ndjson")

	go func() {
		resp, err := w.client.Do(req)
		if err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
		}
	}()
	go func() {
		defer close(ps.done)
		defer pw.Close()
		enc := json.NewEncoder(pw)
		for ev := range ps.ch {
			if err := enc.Encode(ev); err != nil {
				// Coordinator went away mid-stream; drain the channel so
				// the callback never blocks.
				for range ps.ch {
				}
				return
			}
		}
	}()
	return ps
}

// observe is the synth.Options.Progress callback: non-blocking, lossy.
func (ps *progressStream) observe(ev synth.ProgressEvent) {
	if ps.ch == nil {
		return
	}
	select {
	case ps.ch <- ev:
	default:
	}
}

func (ps *progressStream) close() { ps.closeC() }
