package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"memsynth/internal/memmodel"
	"memsynth/internal/synth"
)

// Job states.
const (
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// maxJobHistory bounds the completed-job records kept for status queries;
// the oldest completed jobs are pruned first (running jobs are never
// pruned).
const maxJobHistory = 256

// JobProgress is the live snapshot of a running job. Synthesis jobs
// carry the engine's latest progress event; stress jobs set Phase
// "stress", Elapsed and the stress fields.
type JobProgress struct {
	synth.ProgressEvent
	// Stress-job counters: tests executed / suite size, iterations run,
	// and iterations whose outcome the model forbids.
	TestsRun    int   `json:"tests_run,omitempty"`
	TestsTotal  int   `json:"tests_total,omitempty"`
	Iterations  int64 `json:"iterations,omitempty"`
	Unexplained int64 `json:"unexplained,omitempty"`
}

// JobStatus is the GET /v1/jobs/{id} response (also the 202 body of an
// async synthesize or suite run).
type JobStatus struct {
	ID        string    `json:"id"`
	Digest    string    `json:"digest"`
	Model     string    `json:"model"`
	State     string    `json:"state"`
	CreatedAt time.Time `json:"created_at"`
	// Kind distinguishes job flavors: "synthesize" (default, omitted for
	// compatibility) or "stress".
	Kind   string `json:"kind,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	// Stress is the run manifest of a stress job: the exact parameters
	// (including the normalized seed) that replay it.
	Stress   *StressParams `json:"stress,omitempty"`
	Progress *JobProgress  `json:"progress,omitempty"`
	// Result carries a completed stress job's report (synthesis results
	// live in the store under Digest instead).
	Result any    `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
}

// job is one async request. A synthesis job's result is not kept on the
// job (a done job's suite lives in the store under the job's digest); a
// stress job's report is kept in result.
type job struct {
	id      string
	digest  string
	model   string
	kind    string
	created time.Time
	done    chan struct{}
	stress  *StressParams

	mu         sync.Mutex
	state      string
	cached     bool
	errMsg     string
	flight     *flight // progress source while running; nil before attach
	progressFn func() *JobProgress
	result     any
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		Digest:    j.digest,
		Model:     j.model,
		State:     j.state,
		Kind:      j.kind,
		CreatedAt: j.created,
		Cached:    j.cached,
		Stress:    j.stress,
		Result:    j.result,
		Error:     j.errMsg,
	}
	if j.state != JobRunning {
		return st
	}
	switch {
	case j.progressFn != nil:
		st.Progress = j.progressFn()
	case j.flight != nil:
		if ev := j.flight.snapshot(); ev.Phase != "" {
			st.Progress = &JobProgress{ProgressEvent: ev}
		}
	}
	return st
}

// jobSet is the job registry plus the drain barrier.
type jobSet struct {
	mu   sync.Mutex
	m    map[string]*job
	wg   sync.WaitGroup
	seen []string // insertion order, for history pruning
}

func newJobSet() *jobSet { return &jobSet{m: make(map[string]*job)} }

func (js *jobSet) add(j *job) {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.m[j.id] = j
	js.seen = append(js.seen, j.id)
	// Prune oldest completed jobs beyond the history bound.
	if len(js.seen) > maxJobHistory {
		kept := js.seen[:0]
		excess := len(js.seen) - maxJobHistory
		for _, id := range js.seen {
			old := js.m[id]
			if excess > 0 && old != nil && old.completed() {
				delete(js.m, id)
				excess--
				continue
			}
			kept = append(kept, id)
		}
		js.seen = kept
	}
}

func (j *job) completed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state != JobRunning
}

func (js *jobSet) get(id string) (*job, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	j, ok := js.m[id]
	return j, ok
}

// wait blocks until all jobs complete or ctx expires.
func (js *jobSet) wait(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		js.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to a
		// constant-prefix zero ID rather than crashing the daemon.
		return "job-00000000"
	}
	return "job-" + hex.EncodeToString(b[:])
}

// startJob launches an async synthesis. The job runs under the server's
// base context — detached from the submitting request, so the client can
// disconnect and poll later — and completes when the suite is stored (or
// the run fails). Graceful shutdown drains these via jobSet.wait.
func (s *Server) startJob(model memmodel.Model, opts synth.Options, digest string) *job {
	j := &job{
		id:      newJobID(),
		digest:  digest,
		model:   model.Name(),
		created: time.Now().UTC(),
		state:   JobRunning,
		done:    make(chan struct{}),
	}
	s.jobs.add(j)
	s.jobs.wg.Add(1)
	s.metrics.jobsActive.Add(1)
	go func() {
		defer func() {
			s.metrics.jobsActive.Add(-1)
			s.metrics.jobsDone.Add(1)
			s.jobs.wg.Done()
			close(j.done)
		}()
		_, cached, err := s.synthesize(s.baseCtx, model, opts, digest, func(f *flight) {
			j.mu.Lock()
			j.flight = f
			j.mu.Unlock()
		})
		j.mu.Lock()
		defer j.mu.Unlock()
		j.cached = cached
		if err != nil {
			j.state = JobFailed
			j.errMsg = err.Error()
			return
		}
		j.state = JobDone
	}()
	return j
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	if r.URL.Query().Get("stream") == "" {
		writeJSON(w, http.StatusOK, j.status())
		return
	}
	s.streamJob(w, r, j)
}

// streamJob writes newline-delimited JSON status snapshots until the job
// completes or the client disconnects. Each line is a full JobStatus; the
// final line carries the terminal state.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, j *job) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	enc := json.NewEncoder(w)

	emit := func() bool {
		if err := enc.Encode(j.status()); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	if !emit() {
		return
	}
	ticker := time.NewTicker(200 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-j.done:
			emit()
			return
		case <-r.Context().Done():
			return
		case <-ticker.C:
			if !emit() {
				return
			}
		}
	}
}
