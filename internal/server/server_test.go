package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/store"
	"memsynth/internal/synth"
)

func newTestServer(t testing.TB, dir string) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: st, MaxJobs: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postSynthesize(t testing.TB, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/synthesize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// readMetrics fetches and decodes /metrics (counters are numbers; the
// per-backend request counter is a nested map).
func readMetrics(t testing.TB, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// metricValue reads one counter from /metrics.
func metricValue(t testing.TB, url, name string) int64 {
	t.Helper()
	v, ok := readMetrics(t, url)[name]
	if !ok {
		t.Fatalf("metric %q missing", name)
	}
	f, ok := v.(float64)
	if !ok {
		t.Fatalf("metric %q is not a number: %v", name, v)
	}
	return int64(f)
}

// TestSynthesizeCacheHitEndToEnd is the acceptance flow: two identical
// POSTs — the second is a store hit (visible in /metrics) returning a
// byte-identical suite — and the suite is also served by /v1/suites.
func TestSynthesizeCacheHitEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	body := `{"model":"sc","max_events":4,"format":"litmus"}`

	resp1, suite1 := postSynthesize(t, ts.URL, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d: %s", resp1.StatusCode, suite1)
	}
	if got := resp1.Header.Get("X-Memsynth-Cached"); got != "false" {
		t.Errorf("first POST cached header = %q, want false", got)
	}
	if len(suite1) == 0 || !strings.Contains(string(suite1), "forbid:") {
		t.Fatalf("first POST returned no suite text: %q", suite1)
	}

	resp2, suite2 := postSynthesize(t, ts.URL, body)
	if got := resp2.Header.Get("X-Memsynth-Cached"); got != "true" {
		t.Errorf("second POST cached header = %q, want true", got)
	}
	if !bytes.Equal(suite1, suite2) {
		t.Error("cache hit returned different suite bytes")
	}
	if hits := metricValue(t, ts.URL, "store_hits"); hits != 1 {
		t.Errorf("store_hits = %d, want 1", hits)
	}
	if misses := metricValue(t, ts.URL, "store_misses"); misses != 1 {
		t.Errorf("store_misses = %d, want 1", misses)
	}
	if runs := metricValue(t, ts.URL, "synth_runs"); runs != 1 {
		t.Errorf("synth_runs = %d, want 1", runs)
	}

	digest := resp1.Header.Get("X-Memsynth-Digest")
	resp3, err := http.Get(ts.URL + "/v1/suites/" + digest + "?format=litmus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	suite3, _ := io.ReadAll(resp3.Body)
	if !bytes.Equal(suite1, suite3) {
		t.Error("GET /v1/suites suite differs from POST response")
	}
}

// TestSingleFlightCoalescing: two concurrent identical requests trigger
// exactly one engine run; the follower is counted as coalesced.
func TestSingleFlightCoalescing(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir())
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	s.synthFn = func(ctx context.Context, m memmodel.Model, opts synth.Options) (*synth.Result, error) {
		started <- struct{}{}
		<-release
		return synth.SynthesizeContext(ctx, m, opts)
	}

	body := `{"model":"sc","max_events":3,"format":"litmus"}`
	var wg sync.WaitGroup
	results := make([][]byte, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, data := postSynthesize(t, ts.URL, body)
			results[i] = data
		}(i)
	}

	<-started // leader is inside the engine
	// Wait until the second request has joined the flight.
	for deadline := time.Now().Add(5 * time.Second); s.metrics.coalesced.Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("second request never coalesced")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	wg.Wait()

	if runs := s.metrics.synthRuns.Value(); runs != 1 {
		t.Errorf("synth_runs = %d, want 1 (single-flight)", runs)
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Error("coalesced requests returned different suites")
	}
	select {
	case <-started:
		t.Error("engine ran twice")
	default:
	}
}

// TestStoreSurvivesRestart: a fresh server instance over the same data
// dir serves the previously synthesized suite without any engine run.
func TestStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, dir)
	body := `{"model":"sc","max_events":4,"format":"litmus"}`
	resp1, suite1 := postSynthesize(t, ts1.URL, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d", resp1.StatusCode)
	}
	ts1.Close()

	s2, ts2 := newTestServer(t, dir)
	s2.synthFn = func(context.Context, memmodel.Model, synth.Options) (*synth.Result, error) {
		return nil, errors.New("engine must not run: suite is persisted")
	}
	resp2, suite2 := postSynthesize(t, ts2.URL, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("restart POST: %d: %s", resp2.StatusCode, suite2)
	}
	if got := resp2.Header.Get("X-Memsynth-Cached"); got != "true" {
		t.Errorf("restart POST cached header = %q, want true", got)
	}
	if !bytes.Equal(suite1, suite2) {
		t.Error("suite differs across server restart")
	}
}

// TestClientDisconnectCancelsRun: when the only waiter goes away, the
// engine run's context is cancelled.
func TestClientDisconnectCancelsRun(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: st})
	defer s.Close()

	engineCancelled := make(chan struct{})
	s.synthFn = func(ctx context.Context, m memmodel.Model, opts synth.Options) (*synth.Result, error) {
		<-ctx.Done()
		close(engineCancelled)
		return &synth.Result{Stats: synth.Stats{Interrupted: true}}, nil
	}

	model, err := memmodel.ByName("sc")
	if err != nil {
		t.Fatal(err)
	}
	opts := synth.Options{MaxEvents: 3}
	digest := store.Digest("sc", "", opts)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.synthesize(ctx, model, opts, digest, nil)
		errc <- err
	}()
	// Let the request join and the leader start, then disconnect.
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Errorf("synthesize after disconnect: %v, want context.Canceled", err)
	}
	select {
	case <-engineCancelled:
	case <-time.After(5 * time.Second):
		t.Error("engine context never cancelled after all waiters left")
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	resp, data := postSynthesize(t, ts.URL, `{"model":"sc","max_events":4,"async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async POST: %d: %s", resp.StatusCode, data)
	}
	var status JobStatus
	if err := json.Unmarshal(data, &status); err != nil {
		t.Fatal(err)
	}
	if status.ID == "" || status.State != JobRunning {
		t.Fatalf("bad initial job status: %+v", status)
	}

	deadline := time.Now().Add(30 * time.Second)
	for status.State == JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never completed")
		}
		time.Sleep(10 * time.Millisecond)
		resp, err := http.Get(ts.URL + "/v1/jobs/" + status.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if status.State != JobDone {
		t.Fatalf("job state = %s (%s), want done", status.State, status.Error)
	}
	// The job's digest resolves in the suites API.
	resp2, err := http.Get(ts.URL + "/v1/suites/" + status.Digest)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("GET stored suite of done job: %d", resp2.StatusCode)
	}
}

// TestJobProgressCarriesRecord pins that a synthesis job's progress is
// the engine's whole record: GET /v1/jobs/{id} reports executions_fast on
// a tso run with admit on, and forbidden_outcomes on one with the
// forbidden-outcome census requested (which turns admit off), beside the
// other counters.
func TestJobProgressCarriesRecord(t *testing.T) {
	for _, tc := range []struct {
		body string
		key  string // the counter the run must report
	}{
		{`{"model":"tso","max_events":4,"async":true}`, "executions_fast"},
		{`{"model":"tso","max_events":4,"count_forbidden":true,"async":true}`, "forbidden_outcomes"},
	} {
		t.Run(tc.key, func(t *testing.T) {
			s, ts := newTestServer(t, t.TempDir())
			ran := make(chan *synth.Result, 1)
			release := make(chan struct{})
			// Release the job and let it store its suite before the
			// server closes and its store's directory is removed.
			t.Cleanup(func() {
				close(release)
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := s.Drain(ctx); err != nil {
					t.Errorf("job did not finish: %v", err)
				}
			})
			// The engine run finishes (its done event is the job's
			// progress), then holds the job running until the test has
			// read that progress.
			s.synthFn = func(ctx context.Context, m memmodel.Model, opts synth.Options) (*synth.Result, error) {
				res, err := synth.SynthesizeContext(ctx, m, opts)
				ran <- res
				<-release
				return res, err
			}
			_, data := postSynthesize(t, ts.URL, tc.body)
			var status JobStatus
			if err := json.Unmarshal(data, &status); err != nil {
				t.Fatal(err)
			}
			res := <-ran

			resp, err := http.Get(ts.URL + "/v1/jobs/" + status.ID)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var got struct {
				State    string         `json:"state"`
				Progress map[string]any `json:"progress"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			if got.State != JobRunning {
				t.Fatalf("job state = %s, want running", got.State)
			}
			want := map[string]int{
				"programs_raw":       res.Stats.ProgramsRaw,
				"programs":           res.Stats.Programs,
				"executions":         res.Stats.Executions,
				"executions_fast":    res.Stats.ExecutionsFast,
				"forbidden_outcomes": res.Stats.ForbiddenOutcomes,
				"entries":            res.Stats.Entries,
			}
			if want[tc.key] == 0 {
				t.Fatalf("run has no %s to report: %+v", tc.key, res.Stats)
			}
			for key, w := range want {
				// Zero counters with omitempty tags are absent.
				if v, _ := got.Progress[key].(float64); int(v) != w {
					t.Errorf("progress %q = %v, want %d", key, got.Progress[key], w)
				}
			}
		})
	}
}

func TestJobStreamEndsWithTerminalState(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	_, data := postSynthesize(t, ts.URL, `{"model":"sc","max_events":3,"async":true}`)
	var status JobStatus
	if err := json.Unmarshal(data, &status); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + status.ID + "?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type = %q", ct)
	}
	var last JobStatus
	lines := 0
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		if err := json.Unmarshal(scanner.Bytes(), &last); err != nil {
			t.Fatalf("bad stream line %q: %v", scanner.Text(), err)
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("stream produced no snapshots")
	}
	if last.State != JobDone {
		t.Errorf("final stream state = %s, want done", last.State)
	}
}

func TestModelsHealthzAndErrors(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models []struct {
		Name   string   `json:"name"`
		Axioms []string `json:"axioms"`
	}
	err = json.NewDecoder(resp.Body).Decode(&models)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range models {
		if m.Name == "tso" && len(m.Axioms) > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("models listing missing tso: %+v", models)
	}

	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"model":"nope","max_events":3}`, http.StatusBadRequest},
		{`{"model":"sc","max_events":-2}`, http.StatusBadRequest},
		{`{"model":"sc","max_events":3,"format":"yaml"}`, http.StatusBadRequest},
		{`{"model":"sc","max_events":3,"bogus_field":1}`, http.StatusBadRequest},
		{`{"model":"sc","max_events":3,"priority":"batch"}`, http.StatusBadRequest},
		{`{"model":"sc","max_events":3,"backend":"sat"}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	} {
		resp, data := postSynthesize(t, ts.URL, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("POST %s: status %d (%s), want %d", tc.body, resp.StatusCode, data, tc.want)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/job-missing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job: %d, want 404", resp.StatusCode)
	}
}

func TestSuiteListAndEvict(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	resp1, _ := postSynthesize(t, ts.URL, `{"model":"sc","max_events":3}`)
	digest := resp1.Header.Get("X-Memsynth-Digest")

	resp, err := http.Get(ts.URL + "/v1/suites")
	if err != nil {
		t.Fatal(err)
	}
	var listed []struct {
		Digest string `json:"digest"`
		Model  string `json:"model"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listed)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 1 || listed[0].Digest != digest || listed[0].Model != "sc" {
		t.Fatalf("bad listing: %+v", listed)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/suites/"+digest, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Errorf("DELETE: %d, want 204", dresp.StatusCode)
	}
	gresp, err := http.Get(ts.URL + "/v1/suites/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Errorf("GET after evict: %d, want 404", gresp.StatusCode)
	}
}

// TestSuiteDetect runs the fault-detection matrix over a stored TSO suite
// — the store-to-harness reuse path.
func TestSuiteDetect(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes tso at bound 4")
	}
	_, ts := newTestServer(t, t.TempDir())
	resp1, _ := postSynthesize(t, ts.URL, `{"model":"tso","max_events":4}`)
	digest := resp1.Header.Get("X-Memsynth-Digest")

	resp, err := http.Get(ts.URL + "/v1/suites/" + digest + "/detect")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Tests int `json:"tests"`
		Rows  []struct {
			Fault    string `json:"fault"`
			Detected bool   `json:"detected"`
		} `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Tests == 0 {
		t.Fatal("stored tso suite is empty")
	}
	if len(out.Rows) < 2 {
		t.Fatalf("detection matrix has %d rows", len(out.Rows))
	}
	// Row 0 is the correct machine: no false positives.
	if out.Rows[0].Detected {
		t.Errorf("correct machine flagged: %+v", out.Rows[0])
	}
	detected := 0
	for _, r := range out.Rows[1:] {
		if r.Detected {
			detected++
		}
	}
	if detected == 0 {
		t.Error("suite detected no seeded faults")
	}
}

// TestAdmitEndpointAndMetrics covers the fast-admissibility surface of
// the service: GET /v1/admit (the per-model capability matrix), the
// admit_fast_decisions / admit_fallbacks counters, the per-request
// fallback-reason log line, cache identity across admit modes, and 400
// rejection of unknown admit modes.
func TestAdmitEndpointAndMetrics(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logs []string
	s := New(Config{Store: st, MaxJobs: 2, Logf: func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	logged := func(substr string) bool {
		mu.Lock()
		defer mu.Unlock()
		for _, l := range logs {
			if strings.Contains(l, substr) {
				return true
			}
		}
		return false
	}

	resp, err := http.Get(ts.URL + "/v1/admit")
	if err != nil {
		t.Fatal(err)
	}
	var caps []struct {
		Model     string `json:"model"`
		Supported bool   `json:"supported"`
		Reason    string `json:"reason"`
	}
	err = json.NewDecoder(resp.Body).Decode(&caps)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	byModel := make(map[string]struct {
		Supported bool
		Reason    string
	})
	for _, c := range caps {
		byModel[c.Model] = struct {
			Supported bool
			Reason    string
		}{c.Supported, c.Reason}
	}
	for _, name := range []string{"sc", "tso"} {
		if c := byModel[name]; !c.Supported || c.Reason != "" {
			t.Errorf("/v1/admit for %s: %+v, want supported with no reason", name, c)
		}
	}
	if c, ok := byModel["c11"]; !ok || c.Supported || c.Reason == "" {
		t.Errorf("/v1/admit for c11: %+v, want unsupported with a reason", c)
	}

	// A model with no acyclicity graph falls back: counted and logged per
	// request.
	resp1, data := postSynthesize(t, ts.URL, `{"model":"c11","max_events":3}`)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("c11 POST: %d: %s", resp1.StatusCode, data)
	}
	if !logged("admit: model c11 falls back to exhaustive enumeration") {
		t.Errorf("missing admit fallback log; logs: %q", logs)
	}
	if n, _ := readMetrics(t, ts.URL)["admit_fallbacks"].(float64); n != 1 {
		t.Errorf("admit_fallbacks = %v, want 1", n)
	}

	// A supported model takes the fast path and accumulates fast decisions.
	resp2, data := postSynthesize(t, ts.URL, `{"model":"tso","max_events":4}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("tso POST: %d: %s", resp2.StatusCode, data)
	}
	m := readMetrics(t, ts.URL)
	if n, _ := m["admit_fast_decisions"].(float64); n <= 0 {
		t.Errorf("admit_fast_decisions = %v, want > 0 after a tso run", n)
	}
	if n, _ := m["admit_fallbacks"].(float64); n != 1 {
		t.Errorf("admit_fallbacks = %v after supported run, want still 1", n)
	}

	// The switch never shifts the cache digest: an admit-off request for
	// the same (model, bound) must hit the suite the fast run stored.
	resp3, data := postSynthesize(t, ts.URL, `{"model":"tso","max_events":4,"admit":"off"}`)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("admit-off POST: %d: %s", resp3.StatusCode, data)
	}
	if got := resp3.Header.Get("X-Memsynth-Cached"); got != "true" {
		t.Errorf("admit-off request after fast run: cached = %q, want true", got)
	}

	resp4, data := postSynthesize(t, ts.URL, `{"model":"tso","max_events":3,"admit":"fast"}`)
	if resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown admit mode: status %d (%s), want 400", resp4.StatusCode, data)
	}
}

// TestModelPanicFailsRequest: a model whose axiom panics fails its own
// request with an error status naming the model, stores nothing, and
// leaves the daemon serving other requests.
func TestModelPanicFailsRequest(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	boom := memmodel.Define("boom",
		[]memmodel.Axiom{{Name: "explodes", Holds: func(*exec.View) bool { panic("axiom exploded") }}},
		memmodel.Vocab{Ops: []litmus.Op{litmus.R(0), litmus.W(0)}},
		memmodel.RelaxSpec{})
	models := memmodel.NewRegistry()
	if err := models.Register(boom); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: st, MaxJobs: 2, Models: models})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	resp, data := postSynthesize(t, ts.URL, `{"model":"boom","max_events":2}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking model: status %d (%s), want 500", resp.StatusCode, data)
	}
	for _, want := range []string{"model boom panicked", "axiom exploded"} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("error body %s does not mention %q", data, want)
		}
	}
	if _, err := st.Get(store.DigestModel(boom, synth.Options{MaxEvents: 2})); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("failed run left a stored suite (Get: %v)", err)
	}

	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Errorf("healthz after a model panic: %d", health.StatusCode)
	}
	resp, data = postSynthesize(t, ts.URL, `{"model":"sc","max_events":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sc after a model panic: %d: %s", resp.StatusCode, data)
	}
	if _, err := st.Get(store.DigestModel(memmodel.SC(), synth.Options{MaxEvents: 2})); err != nil {
		t.Errorf("sc suite not stored under the digest this test computes: %v", err)
	}
}

// BenchmarkServerSynthesizeCached measures the service hot path: a
// synthesize POST served from a warmed store.
func BenchmarkServerSynthesizeCached(b *testing.B) {
	_, ts := newTestServer(b, b.TempDir())
	body := `{"model":"sc","max_events":4,"format":"litmus"}`
	resp, data := postSynthesize(b, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("warmup: %d: %s", resp.StatusCode, data)
	}
	client := ts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/synthesize", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get("X-Memsynth-Cached"); got != "true" {
			b.Fatalf("uncached response in cached benchmark (%s)", got)
		}
	}
}
