// Package server exposes the synthesis engine as an HTTP service backed by
// the content-addressed suite store (internal/store).
//
// Endpoints (all JSON unless noted):
//
//	POST   /v1/synthesize            synthesize or fetch a cached suite
//	                                 (async job mode with {"async": true})
//	GET    /v1/jobs/{id}             job status; ?stream=1 streams NDJSON
//	                                 progress snapshots until completion
//	GET    /v1/suites                list stored suites
//	GET    /v1/suites/{digest}       manifest; ?format=litmus serves the
//	                                 suite text (?axiom= selects a suite)
//	DELETE /v1/suites/{digest}       evict a stored suite
//	GET    /v1/suites/{digest}/detect  run the x86-TSO fault-detection
//	                                 matrix over the stored union suite
//	POST   /v1/suites/{digest}/run   stress-execute a stored suite natively
//	                                 on this host as an async job (202 +
//	                                 job ID; poll or stream /v1/jobs/{id})
//	GET    /v1/suites/{digest}/render  render a stored suite for a target
//	                                 dialect (?target=x86|power|arm|c11|go,
//	                                 ?axiom= selects a suite)
//	GET    /v1/models                visible models (built-in + registered),
//	                                 each with source ("builtin"/"cat"),
//	                                 definition digest, axioms, relaxations
//	POST   /v1/models                register a cat model definition (plain
//	                                 text body); lints, compiles, and
//	                                 returns the definition digest plus any
//	                                 lint warnings (error findings → 422)
//	POST   /v1/models/lint           dry-run lint of a definition (plain
//	                                 text body); returns the full catlint
//	                                 report without registering anything
//	                                 (?bound= overrides the tier-2 bound)
//	GET    /v1/admit                 fast-admissibility capability matrix:
//	                                 per builtin model, whether the explore
//	                                 phase can use the polynomial
//	                                 reads-from consistency check
//	GET    /healthz                  liveness probe
//	GET    /metrics                  expvar counters (JSON)
//
// Identical concurrent synthesize requests are coalesced single-flight
// style onto one engine run; completed runs are persisted to the store, so
// a result is computed at most once per (model, bounds, engine version)
// across the daemon's lifetime and across restarts. Engine runs are
// bounded by a semaphore, and a run whose waiters have all disconnected is
// cancelled through its context.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"memsynth/internal/admit"
	"memsynth/internal/cat"
	"memsynth/internal/catlint"
	"memsynth/internal/cluster"
	"memsynth/internal/harness"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/store"
	"memsynth/internal/synth"
)

// Config configures a Server.
type Config struct {
	// Store is the backing suite store (required).
	Store *store.Store
	// MaxJobs bounds concurrent engine runs (default 2).
	MaxJobs int
	// Models resolves model names for this server instance. Defaults to a
	// fresh registry (built-ins visible, no registrations shared with
	// other instances).
	Models *memmodel.Registry
	// LintBound is the tier-2 event bound used when linting registered
	// definitions (default: the catlint default, 4).
	LintBound int
	// Logf, when non-nil, receives request-level log lines (each
	// synthesis run, admit fallback reasons, peer read-through and cluster
	// fallback warnings). The daemon wires log.Printf; nil discards.
	Logf func(format string, args ...any)
	// Cluster, when non-nil, makes this server a cluster coordinator:
	// cold synthesize requests are partitioned into shard jobs and
	// distributed to registered workers (falling back to a local engine
	// run when no workers are live), and the /v1/cluster/* worker API is
	// mounted. The server owns neither the coordinator's lifecycle nor
	// its store wiring — the daemon does.
	Cluster *cluster.Coordinator
	// Peer, when non-nil, is consulted on store misses before
	// synthesizing (store.GetThrough): the cluster's shared cache tier.
	// Worker nodes point it at the coordinator's suites API.
	Peer store.Peer
}

// DefaultMaxJobs is the engine-run concurrency bound when Config.MaxJobs
// is not positive. Each run already fans out over all CPUs internally, so
// a small number of concurrent runs saturates the machine.
const DefaultMaxJobs = 2

// metrics is the per-server expvar counter set, served at /metrics. The
// counters live in a private expvar.Map (not the process-global registry)
// so multiple servers — e.g. under test — never collide.
type metrics struct {
	all *expvar.Map
	// hits/misses count store lookups of synthesize requests; coalesced
	// counts requests that joined an in-flight identical run; synthRuns
	// counts actual engine runs started.
	hits, misses, coalesced, synthRuns *expvar.Int
	// inflight is the gauge of engine runs currently executing.
	inflight *expvar.Int
	// requests / latencyNS accumulate synthesize request count and
	// wall-clock service time.
	requests, latencyNS  *expvar.Int
	jobsActive, jobsDone *expvar.Int
	// lintWarnings counts warning findings on accepted model
	// registrations (422 rejections are not counted).
	lintWarnings *expvar.Int
	// peerHits counts store misses served by the peer cache tier.
	peerHits *expvar.Int
	// stressRuns counts stress jobs started; stressIterations accumulates
	// iterations executed across them; stressUnexplained accumulates
	// iterations whose observed outcome the model forbids.
	stressRuns, stressIterations, stressUnexplained *expvar.Int
	// admitFast accumulates executions decided by the fast-admissibility
	// filter across engine runs (without being enumerated); admitFallbacks
	// counts synthesize requests whose model has no fast-admissibility
	// algorithm and therefore ran on full enumeration.
	admitFast, admitFallbacks *expvar.Int
}

func newMetrics() *metrics {
	m := &metrics{all: new(expvar.Map).Init()}
	mk := func(name string) *expvar.Int {
		v := new(expvar.Int)
		m.all.Set(name, v)
		return v
	}
	m.hits = mk("store_hits")
	m.misses = mk("store_misses")
	m.coalesced = mk("coalesced_requests")
	m.synthRuns = mk("synth_runs")
	m.inflight = mk("inflight_runs")
	m.requests = mk("synthesize_requests")
	m.latencyNS = mk("synthesize_latency_ns")
	m.jobsActive = mk("jobs_active")
	m.jobsDone = mk("jobs_done")
	m.lintWarnings = mk("model_lint_warnings")
	m.peerHits = mk("peer_hits")
	m.stressRuns = mk("stress_runs")
	m.stressIterations = mk("stress_iterations")
	m.stressUnexplained = mk("stress_unexplained_outcomes")
	m.admitFast = mk("admit_fast_decisions")
	m.admitFallbacks = mk("admit_fallbacks")
	return m
}

// Server is the memsynthd HTTP service. Create with New, mount
// Handler(), and on shutdown call Drain then Close.
type Server struct {
	store    *store.Store
	models   *memmodel.Registry
	sem      chan struct{}
	metrics  *metrics
	mux      *http.ServeMux
	lintOpts catlint.Options

	cluster *cluster.Coordinator
	peer    store.Peer

	logFn func(format string, args ...any)

	baseCtx    context.Context
	baseCancel context.CancelFunc
	flights    *flightGroup
	jobs       *jobSet
	// synthFn runs one synthesis; tests swap it to observe or fake runs.
	synthFn func(ctx context.Context, m memmodel.Model, opts synth.Options) (*synth.Result, error)
}

// New builds a Server over cfg.Store.
func New(cfg Config) *Server {
	maxJobs := cfg.MaxJobs
	if maxJobs <= 0 {
		maxJobs = DefaultMaxJobs
	}
	models := cfg.Models
	if models == nil {
		models = memmodel.NewRegistry()
	}
	s := &Server{
		store:    cfg.Store,
		models:   models,
		sem:      make(chan struct{}, maxJobs),
		metrics:  newMetrics(),
		mux:      http.NewServeMux(),
		lintOpts: catlint.Options{Bound: cfg.LintBound},
		logFn:    cfg.Logf,
		synthFn:  synth.SynthesizeContext,
		cluster:  cfg.Cluster,
		peer:     cfg.Peer,
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.flights = newFlightGroup()
	s.jobs = newJobSet()

	// Store-tier observability: LRU hit/miss/evict counters plus the
	// on-disk footprint of the cold tier, sampled at /metrics read time.
	s.metrics.all.Set("store_cache", expvar.Func(func() any { return s.store.Counters() }))
	s.metrics.all.Set("store_bytes", expvar.Func(func() any {
		n, err := s.store.DiskBytes()
		if err != nil {
			return -1
		}
		return n
	}))
	if s.cluster != nil {
		s.metrics.all.Set("cluster", s.cluster.Metrics())
		s.mux.Handle("/v1/cluster/", s.cluster)
	}

	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/models", s.handleModels)
	s.mux.HandleFunc("POST /v1/models", s.handleModelRegister)
	s.mux.HandleFunc("POST /v1/models/lint", s.handleModelLint)
	s.mux.HandleFunc("POST /v1/synthesize", s.handleSynthesize)
	s.mux.HandleFunc("GET /v1/admit", s.handleAdmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/suites", s.handleSuiteList)
	s.mux.HandleFunc("GET /v1/suites/{digest}", s.handleSuiteGet)
	s.mux.HandleFunc("DELETE /v1/suites/{digest}", s.handleSuiteEvict)
	s.mux.HandleFunc("GET /v1/suites/{digest}/detect", s.handleSuiteDetect)
	s.mux.HandleFunc("GET /v1/suites/{digest}/bundle", s.handleSuiteBundle)
	s.mux.HandleFunc("POST /v1/suites/{digest}/run", s.handleSuiteRun)
	s.mux.HandleFunc("GET /v1/suites/{digest}/render", s.handleSuiteRender)
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) logf(format string, args ...any) {
	if s.logFn != nil {
		s.logFn(format, args...)
	}
}

// Drain blocks until every async job has completed, or ctx expires.
func (s *Server) Drain(ctx context.Context) error { return s.jobs.wait(ctx) }

// Close cancels every in-flight engine run. Call after Drain on graceful
// shutdown (or alone on abort).
func (s *Server) Close() { s.baseCancel() }

// --- request/response shapes ---

// SynthesizeRequest is the POST /v1/synthesize body. The embedded
// RequestOptions carry the synthesis bounds.
type SynthesizeRequest struct {
	Model string `json:"model"`
	store.RequestOptions
	// Admit controls the fast-admissibility filter on the enumeration hot
	// path: "" or "auto" uses it for models that declare an acyclicity
	// graph, "off" forces exhaustive enumeration. The switch never changes the
	// produced suites or the cache digest.
	Admit string `json:"admit,omitempty"`
	// Async enqueues a job and returns 202 with its ID instead of
	// blocking until the suite is ready.
	Async bool `json:"async,omitempty"`
	// Axiom selects which suite the response carries (default "union").
	Axiom string `json:"axiom,omitempty"`
	// Format selects the response body: "json" (default, a summary) or
	// "litmus" (the suite text, byte-identical across cache hits).
	Format string `json:"format,omitempty"`
}

// SynthesizeResponse is the JSON summary of a synthesize request.
type SynthesizeResponse struct {
	Digest        string      `json:"digest"`
	Model         string      `json:"model"`
	EngineVersion string      `json:"engine_version"`
	Cached        bool        `json:"cached"`
	Stats         synth.Stats `json:"stats"`
	// Suites maps suite name ("union" or axiom) to its test count.
	Suites map[string]int `json:"suites"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Findings carries the lint diagnostics when a model registration is
	// rejected for error-severity findings.
	Findings []catlint.Finding `json:"findings,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// --- handlers ---

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, s.metrics.all.String())
}

// modelInfo is one row of the /v1/models listing and the response body of
// a model registration.
type modelInfo struct {
	Name string `json:"name"`
	// Source is "builtin" for native Go models, "cat" for registered
	// definitions.
	Source string `json:"source"`
	// Digest is the hash of the normalized definition ("" for built-ins).
	Digest      string   `json:"digest,omitempty"`
	Axioms      []string `json:"axioms"`
	Relaxations []string `json:"relaxations"`
	// Warnings are the warning-severity lint findings of a registration
	// response (never set in the /v1/models listing).
	Warnings []catlint.Finding `json:"warnings,omitempty"`
}

func describeModel(m memmodel.Model) modelInfo {
	info := modelInfo{Name: m.Name(), Relaxations: memmodel.RelaxationTags(m)}
	info.Source, info.Digest = memmodel.SourceOf(m)
	for _, a := range m.Axioms() {
		info.Axioms = append(info.Axioms, a.Name)
	}
	sort.Strings(info.Axioms)
	return info
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	var out []modelInfo
	for _, m := range s.models.All() {
		out = append(out, describeModel(m))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleModelRegister lints and compiles a cat definition (plain-text
// request body) and registers it in this server's model registry.
// Error-severity lint findings reject the definition with 422 (the
// findings ride along in the error response); warnings are returned with
// the 201 and counted in the model_lint_warnings metric. Registering the
// same name again replaces the definition; cached suites are unaffected
// because store digests are keyed by the definition hash, not the name.
func (s *Server) handleModelRegister(w http.ResponseWriter, r *http.Request) {
	src, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	report := catlint.Lint(string(src), s.lintOpts)
	m, err := cat.Compile(string(src))
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity,
			errorResponse{Error: err.Error(), Findings: report.Findings})
		return
	}
	if report.HasErrors() {
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{
			Error:    fmt.Sprintf("definition rejected by lint: %s", report.Findings[0]),
			Findings: report.Findings,
		})
		return
	}
	if err := s.models.Register(m); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	info := describeModel(m)
	info.Warnings = report.Findings
	s.metrics.lintWarnings.Add(int64(len(report.Findings)))
	writeJSON(w, http.StatusCreated, info)
}

// handleModelLint runs the full two-tier analysis over a definition
// without registering it. Unlike registration, an uncompilable or
// erroneous definition still yields a 200 — the report is the product.
// ?bound=N overrides the tier-2 event bound.
func (s *Server) handleModelLint(w http.ResponseWriter, r *http.Request) {
	src, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	opts := s.lintOpts
	if raw := r.URL.Query().Get("bound"); raw != "" {
		bound, err := strconv.Atoi(raw)
		if err != nil || bound <= 0 {
			writeError(w, http.StatusBadRequest, "bad bound %q", raw)
			return
		}
		opts.Bound = bound
	}
	writeJSON(w, http.StatusOK, catlint.Lint(string(src), opts))
}

func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.metrics.requests.Add(1)
	defer func() { s.metrics.latencyNS.Add(int64(time.Since(t0))) }()

	var req SynthesizeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	model, err := s.models.ByName(req.Model)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts := req.RequestOptions.SynthOptions()
	opts.Admit = req.Admit
	if err := opts.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.logf("synthesize model=%s max_events=%d", model.Name(), opts.MaxEvents)
	if opts.Admit != "off" {
		if ok, reason := admit.Supports(model); !ok {
			s.metrics.admitFallbacks.Add(1)
			s.logf("admit: model %s falls back to exhaustive enumeration: %s", model.Name(), reason)
		}
	}
	switch req.Format {
	case "", "json", "litmus":
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want json or litmus)", req.Format)
		return
	}
	digest := store.DigestModel(model, opts)

	if req.Async {
		job := s.startJob(model, opts, digest)
		writeJSON(w, http.StatusAccepted, job.status())
		return
	}

	ss, cached, err := s.synthesize(r.Context(), model, opts, digest, nil)
	if err != nil {
		if errors.Is(err, r.Context().Err()) && r.Context().Err() != nil {
			// Client went away; the response is written into the void.
			return
		}
		var sat *cluster.SaturatedError
		if errors.As(err, &sat) {
			// Backpressure: the cluster dispatch queue is full. Tell the
			// client when to come back rather than queueing unboundedly.
			secs := int(sat.RetryAfter.Round(time.Second).Seconds())
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.writeSuite(w, req, ss, cached)
}

// handleSuiteBundle serves a complete store entry (manifest plus every
// suite text) in one response — the transfer unit of the cluster's peer
// read-through cache tier (cluster.PeerClient fetches these).
func (s *Server) handleSuiteBundle(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	ss, err := s.store.Get(digest)
	if errors.Is(err, store.ErrNotFound) {
		writeError(w, http.StatusNotFound, "no suite with digest %s", digest)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("X-Memsynth-Digest", digest)
	writeJSON(w, http.StatusOK, ss)
}

// writeSuite renders a synthesize response in the requested format.
func (s *Server) writeSuite(w http.ResponseWriter, req SynthesizeRequest, ss *store.StoredSuite, cached bool) {
	w.Header().Set("X-Memsynth-Digest", ss.Manifest.Digest)
	w.Header().Set("X-Memsynth-Cached", fmt.Sprintf("%t", cached))
	if req.Format == "litmus" {
		axiom := req.Axiom
		if axiom == "" {
			axiom = store.UnionSuite
		}
		text, ok := ss.Text(axiom)
		if !ok {
			writeError(w, http.StatusNotFound, "model %s has no suite %q", ss.Manifest.Model, axiom)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, text)
		return
	}
	writeJSON(w, http.StatusOK, synthesizeResponse(ss, cached))
}

func synthesizeResponse(ss *store.StoredSuite, cached bool) SynthesizeResponse {
	resp := SynthesizeResponse{
		Digest:        ss.Manifest.Digest,
		Model:         ss.Manifest.Model,
		EngineVersion: ss.Manifest.EngineVersion,
		Cached:        cached,
		Stats:         ss.Manifest.Stats,
		Suites:        make(map[string]int, len(ss.Manifest.Suites)),
	}
	for name, sm := range ss.Manifest.Suites {
		resp.Suites[name] = sm.Tests
	}
	return resp
}

// handleAdmit reports, per builtin model, whether the enumeration engine
// runs fast admissibility for it (and why not, when it does not). Models registered from cat definitions always fall back, so they
// are reported only through their absence from the builtin capability
// matrix.
func (s *Server) handleAdmit(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, admit.Models())
}

func (s *Server) handleSuiteList(w http.ResponseWriter, _ *http.Request) {
	manifests, err := s.store.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	type listed struct {
		Digest        string               `json:"digest"`
		Model         string               `json:"model"`
		EngineVersion string               `json:"engine_version"`
		CreatedAt     time.Time            `json:"created_at"`
		Options       store.RequestOptions `json:"options"`
		Tests         int                  `json:"tests"`
	}
	out := make([]listed, 0, len(manifests))
	for _, m := range manifests {
		out = append(out, listed{
			Digest:        m.Digest,
			Model:         m.Model,
			EngineVersion: m.EngineVersion,
			CreatedAt:     m.CreatedAt,
			Options:       m.Options,
			Tests:         m.Suites[store.UnionSuite].Tests,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSuiteGet(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	ss, err := s.store.Get(digest)
	if errors.Is(err, store.ErrNotFound) {
		writeError(w, http.StatusNotFound, "no suite with digest %s", digest)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if r.URL.Query().Get("format") == "litmus" {
		axiom := r.URL.Query().Get("axiom")
		if axiom == "" {
			axiom = store.UnionSuite
		}
		text, ok := ss.Text(axiom)
		if !ok {
			writeError(w, http.StatusNotFound, "suite %s has no axiom %q (have: %v)",
				digest, axiom, ss.SuiteNames())
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("X-Memsynth-Digest", digest)
		fmt.Fprint(w, text)
		return
	}
	writeJSON(w, http.StatusOK, ss.Manifest)
}

func (s *Server) handleSuiteEvict(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	err := s.store.Evict(digest)
	if errors.Is(err, store.ErrNotFound) {
		writeError(w, http.StatusNotFound, "no suite with digest %s", digest)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleSuiteDetect(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	_, res, model, ok := s.loadSuiteModel(w, digest)
	if !ok {
		return
	}
	tests := make([]*litmus.Test, 0, len(res.Union.Entries))
	for _, e := range res.Union.Entries {
		tests = append(tests, e.Test)
	}
	rows, err := harness.DetectionMatrixContext(r.Context(), model, tests)
	if err != nil {
		// Client cancelled mid-matrix; nothing useful to write.
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Digest string                     `json:"digest"`
		Model  string                     `json:"model"`
		Tests  int                        `json:"tests"`
		Rows   []harness.DetectionSummary `json:"rows"`
	}{Digest: digest, Model: model.Name(), Tests: len(tests), Rows: harness.Summarize(rows)})
}
