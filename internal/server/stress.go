package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"memsynth/internal/harness"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/render"
	"memsynth/internal/store"
	"memsynth/internal/stress"
	"memsynth/internal/synth"
)

// JobKindStress marks stress jobs in JobStatus.Kind.
const JobKindStress = "stress"

// StressRequest is the POST /v1/suites/{digest}/run body. An empty body
// stress-executes the union suite with defaults.
type StressRequest struct {
	// Mode is the compile scheme: "atomic" (default) or "plain". Plain is
	// refused when the daemon was built with the race detector.
	Mode string `json:"mode,omitempty"`
	// Iterations and Batch bound the per-test run (package stress
	// defaults apply when zero).
	Iterations int `json:"iterations,omitempty"`
	Batch      int `json:"batch,omitempty"`
	// Seed seeds the shuffle/skew schedule. Zero picks a time-derived
	// seed; either way the seed actually used is recorded in the job's
	// StressParams before the 202 is written, so every run is replayable
	// from its job status alone.
	Seed int64 `json:"seed,omitempty"`
	// Axiom selects which stored suite to run (default "union").
	Axiom string `json:"axiom,omitempty"`
}

// StressParams is the normalized run manifest of a stress job: the exact
// parameters (seed included) that reproduce the run.
type StressParams struct {
	Mode       string `json:"mode"`
	Iterations int    `json:"iterations"`
	Batch      int    `json:"batch"`
	Seed       int64  `json:"seed"`
	Axiom      string `json:"axiom"`
}

// StressRunResult is the Result of a completed stress job.
type StressRunResult struct {
	Digest string `json:"digest"`
	Model  string `json:"model"`
	Mode   string `json:"mode"`
	Seed   int64  `json:"seed"`
	// TestsRun / Skipped / Iterations / Unexplained aggregate over the
	// suite; Violations counts distinct observed-but-forbidden outcomes.
	TestsRun    int   `json:"tests_run"`
	Skipped     int   `json:"skipped,omitempty"`
	Iterations  int64 `json:"iterations"`
	Unexplained int64 `json:"unexplained"`
	Violations  int   `json:"violations"`
	Interrupted bool  `json:"interrupted,omitempty"`
	ElapsedMS   int64 `json:"elapsed_ms"`
	// Reports holds the per-test outcome histograms with Allowed flags
	// filled by the model cross-check.
	Reports []*stress.Report `json:"reports"`
}

// loadSuiteModel fetches a stored suite, rehydrates its result, and
// resolves its model — insisting a registered definition still matches
// the stored digest (replacing a same-named model must not silently
// change what /detect, /run, or /render mean). On failure the error
// response has been written and ok is false.
func (s *Server) loadSuiteModel(w http.ResponseWriter, digest string) (*store.StoredSuite, *synth.Result, memmodel.Model, bool) {
	ss, err := s.store.Get(digest)
	if errors.Is(err, store.ErrNotFound) {
		writeError(w, http.StatusNotFound, "no suite with digest %s", digest)
		return nil, nil, nil, false
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return nil, nil, nil, false
	}
	res, err := ss.Result()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return nil, nil, nil, false
	}
	model, err := s.models.ByName(ss.Manifest.Model)
	if err != nil {
		writeError(w, http.StatusConflict, "stored model is not available: %v", err)
		return nil, nil, nil, false
	}
	if want := ss.Manifest.ModelDigest; want != "" {
		if _, have := memmodel.SourceOf(model); have != want {
			writeError(w, http.StatusConflict,
				"stored suite was synthesized from definition %s but the registered model %q now has digest %q",
				want, ss.Manifest.Model, have)
			return nil, nil, nil, false
		}
	}
	return ss, res, model, true
}

// suiteEntries selects a stored sub-suite by name ("" and "union" mean
// the union suite).
func suiteEntries(res *synth.Result, axiom string) ([]synth.Entry, bool) {
	if axiom == "" || axiom == store.UnionSuite {
		return res.Union.Entries, true
	}
	su, ok := res.PerAxiom[axiom]
	if !ok {
		return nil, false
	}
	return su.Entries, true
}

// handleSuiteRun stress-executes a stored suite natively on this host as
// an async job: 202 with the job status (whose StressParams carry the
// normalized seed), then poll or stream /v1/jobs/{id}. The completed
// job's Result is a StressRunResult with per-test histograms cross-checked
// against the suite's model.
func (s *Server) handleSuiteRun(w http.ResponseWriter, r *http.Request) {
	var req StressRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	mode, err := stress.ParseMode(req.Mode)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	if mode == stress.ModePlain && stress.RaceEnabled {
		writeError(w, http.StatusUnprocessableEntity,
			"%v", stress.ErrPlainUnderRace)
		return
	}
	if req.Iterations < 0 || req.Batch < 0 {
		writeError(w, http.StatusBadRequest, "negative iterations or batch")
		return
	}
	_, res, model, ok := s.loadSuiteModel(w, r.PathValue("digest"))
	if !ok {
		return
	}
	entries, ok := suiteEntries(res, req.Axiom)
	if !ok {
		writeError(w, http.StatusNotFound, "suite %s has no axiom %q",
			r.PathValue("digest"), req.Axiom)
		return
	}
	tests := make([]*litmus.Test, 0, len(entries))
	for _, e := range entries {
		tests = append(tests, e.Test)
	}
	opts := stress.Options{Mode: mode, Iterations: req.Iterations, Batch: req.Batch, Seed: req.Seed}
	// Normalize the seed before the job exists so the 202 already carries
	// the replay manifest.
	if opts.Seed == 0 {
		opts.Seed = time.Now().UnixNano() | 1
	}
	axiom := req.Axiom
	if axiom == "" {
		axiom = store.UnionSuite
	}
	params := &StressParams{
		Mode:       mode.String(),
		Iterations: req.Iterations,
		Batch:      req.Batch,
		Seed:       opts.Seed,
		Axiom:      axiom,
	}
	s.logf("stress digest=%s model=%s mode=%s tests=%d seed=%d",
		r.PathValue("digest"), model.Name(), params.Mode, len(tests), params.Seed)
	j := s.startStressJob(model, tests, r.PathValue("digest"), params, opts)
	writeJSON(w, http.StatusAccepted, j.status())
}

// startStressJob launches an async suite stress run, detached from the
// submitting request like synthesis jobs (run under the server's base
// context, drained on shutdown, streamable via /v1/jobs/{id}?stream=1).
func (s *Server) startStressJob(model memmodel.Model, tests []*litmus.Test, digest string, params *StressParams, opts stress.Options) *job {
	j := &job{
		id:      newJobID(),
		digest:  digest,
		model:   model.Name(),
		kind:    JobKindStress,
		created: time.Now().UTC(),
		state:   JobRunning,
		done:    make(chan struct{}),
		stress:  params,
	}
	var mu sync.Mutex
	var last harness.StressProgress
	t0 := time.Now()
	j.progressFn = func() *JobProgress {
		mu.Lock()
		defer mu.Unlock()
		return &JobProgress{
			ProgressEvent: synth.ProgressEvent{
				Model: model.Name(),
				Phase: "stress",
				Stats: synth.Stats{Elapsed: time.Since(t0)},
			},
			TestsRun:    last.TestsRun,
			TestsTotal:  len(tests),
			Iterations:  last.Iterations,
			Unexplained: last.Unexplained,
		}
	}
	s.jobs.add(j)
	s.jobs.wg.Add(1)
	s.metrics.jobsActive.Add(1)
	s.metrics.stressRuns.Add(1)
	go func() {
		defer func() {
			s.metrics.jobsActive.Add(-1)
			s.metrics.jobsDone.Add(1)
			s.jobs.wg.Done()
			close(j.done)
		}()
		rep := harness.RunStressSuite(s.baseCtx, model, tests, opts, func(p harness.StressProgress) {
			mu.Lock()
			last = p
			mu.Unlock()
		})
		s.metrics.stressIterations.Add(rep.Iterations)
		s.metrics.stressUnexplained.Add(rep.Unexplained)
		j.mu.Lock()
		defer j.mu.Unlock()
		j.result = &StressRunResult{
			Digest:      digest,
			Model:       model.Name(),
			Mode:        rep.Mode,
			Seed:        rep.Seed,
			TestsRun:    rep.TestsRun,
			Skipped:     rep.Skipped,
			Iterations:  rep.Iterations,
			Unexplained: rep.Unexplained,
			Violations:  len(rep.Violations),
			Interrupted: rep.Interrupted,
			ElapsedMS:   rep.Elapsed.Milliseconds(),
			Reports:     rep.Reports,
		}
		j.state = JobDone
	}()
	return j
}

// handleSuiteRender serves a stored suite rendered for a target dialect:
// ?target=x86|power|arm|c11|go (default: the model's conventional
// target), ?axiom= selects a sub-suite. Listings are concatenated with
// blank-line separators; a test outside the target's vocabulary is a 422.
func (s *Server) handleSuiteRender(w http.ResponseWriter, r *http.Request) {
	ss, res, _, ok := s.loadSuiteModel(w, r.PathValue("digest"))
	if !ok {
		return
	}
	var target render.Target
	if raw := r.URL.Query().Get("target"); raw != "" {
		t, err := render.ParseTarget(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		target = t
	} else {
		t, ok := render.TargetFor(ss.Manifest.Model)
		if !ok {
			writeError(w, http.StatusBadRequest,
				"model %q has no conventional render target; pass ?target=x86|power|arm|c11|go",
				ss.Manifest.Model)
			return
		}
		target = t
	}
	entries, ok := suiteEntries(res, r.URL.Query().Get("axiom"))
	if !ok {
		writeError(w, http.StatusNotFound, "suite %s has no axiom %q",
			r.PathValue("digest"), r.URL.Query().Get("axiom"))
		return
	}
	var b strings.Builder
	for i, e := range entries {
		text, err := render.Render(target, e.Test, e.Exec)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity,
				"rendering %s for %s: %v", e.Test.Name, target, err)
			return
		}
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(text)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Memsynth-Digest", ss.Manifest.Digest)
	w.Header().Set("X-Memsynth-Target", target.String())
	fmt.Fprint(w, b.String())
}
