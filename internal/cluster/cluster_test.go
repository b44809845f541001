package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/store"
	"memsynth/internal/synth"
)

// fastConfig is a Config tuned for tests: tight heartbeats so expiry
// fires in milliseconds, short polls so fake workers never block long.
func fastConfig() Config {
	return Config{
		HeartbeatInterval: 40 * time.Millisecond,
		ExpireAfter:       200 * time.Millisecond,
		PollWait:          150 * time.Millisecond,
		Logf:              nil,
	}
}

func mustModel(t *testing.T, name string) memmodel.Model {
	t.Helper()
	m, err := memmodel.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// encodeResult renders a result exactly as the store would persist it,
// for byte comparisons between cluster-merged and single-node runs.
func encodeResult(t *testing.T, res *synth.Result) *store.StoredSuite {
	t.Helper()
	ss, err := store.Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// assertSameSuites fails unless two encoded results carry identical
// digests and byte-identical suite texts.
func assertSameSuites(t *testing.T, got, want *store.StoredSuite) {
	t.Helper()
	if got.Manifest.Digest != want.Manifest.Digest {
		t.Fatalf("digest %s, want %s", got.Manifest.Digest, want.Manifest.Digest)
	}
	if len(got.Texts) != len(want.Texts) {
		t.Fatalf("%d suites, want %d", len(got.Texts), len(want.Texts))
	}
	for name, text := range want.Texts {
		if got.Texts[name] != text {
			t.Errorf("suite %q bytes differ from single-node", name)
		}
	}
}

func metricInt(c *Coordinator, name string) int64 {
	v := c.metrics.Get(name)
	if v == nil {
		return 0
	}
	iv, ok := v.(*expvar.Int)
	if !ok {
		return 0
	}
	return iv.Value()
}

// startWorker runs a real Worker against the coordinator URL; the
// returned stop function triggers its drain and waits for Run to return.
func startWorker(t *testing.T, url, name string, grace time.Duration) (stop func()) {
	t.Helper()
	wk := NewWorker(WorkerConfig{CoordinatorURL: url, Name: name, DrainGrace: grace})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		wk.Run(ctx)
	}()
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("worker did not drain within 10s")
		}
	}
	t.Cleanup(stop)
	return stop
}

// ghost is a scripted fake worker driven over raw HTTP — it registers,
// polls, and then misbehaves exactly as the test directs (vanishing,
// uploading late, never completing).
type ghost struct {
	t   *testing.T
	url string
	id  string
}

func newGhost(t *testing.T, url string) *ghost {
	t.Helper()
	g := &ghost{t: t, url: url}
	body, _ := json.Marshal(RegisterRequest{Name: "ghost", EngineVersion: synth.EngineVersion, PartitionScheme: synth.PartitionScheme})
	resp, err := http.Post(url+"/v1/cluster/workers", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ghost register: status %d", resp.StatusCode)
	}
	var rr RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	g.id = rr.WorkerID
	return g
}

// pollJob polls until a job is assigned or the deadline passes.
func (g *ghost) pollJob(deadline time.Duration) (ShardJob, bool) {
	g.t.Helper()
	var job ShardJob
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		resp, err := http.Post(g.url+"/v1/cluster/workers/"+g.id+"/poll", "application/json", nil)
		if err != nil {
			g.t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			err := json.NewDecoder(resp.Body).Decode(&job)
			resp.Body.Close()
			if err != nil {
				g.t.Fatal(err)
			}
			return job, true
		}
		resp.Body.Close()
	}
	return job, false
}

// post sends one request as the ghost and returns its status code.
func (g *ghost) post(path, body string) int {
	g.t.Helper()
	resp, err := http.Post(g.url+path+"?worker="+g.id, "application/json", strings.NewReader(body))
	if err != nil {
		g.t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// progress streams one progress line reporting executions for job.
func (g *ghost) progress(job ShardJob, executions int) {
	g.t.Helper()
	line := fmt.Sprintf(`{"model":%q,"phase":"tick","size":3,"executions":%d}`+"\n", job.Model, executions)
	if code := g.post("/v1/cluster/shards/"+job.ShardDigest+"/progress", line); code != http.StatusNoContent {
		g.t.Fatalf("progress: status %d", code)
	}
}

// release hands job back for reassignment.
func (g *ghost) release(job ShardJob) {
	g.t.Helper()
	if code := g.post("/v1/cluster/shards/"+job.ShardDigest+"/release", `{"reason":"test"}`); code != http.StatusNoContent {
		g.t.Fatalf("release: status %d", code)
	}
}

func (g *ghost) upload(job ShardJob, sr *synth.ShardResult) (int, ResultResponse) {
	g.t.Helper()
	wire := EncodeShardResult(job.ShardDigest, sr)
	body, _ := json.Marshal(wire)
	resp, err := http.Post(g.url+"/v1/cluster/shards/"+job.ShardDigest+"/result?worker="+g.id,
		"application/json", bytes.NewReader(body))
	if err != nil {
		g.t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr ResultResponse
	json.NewDecoder(resp.Body).Decode(&rr)
	return resp.StatusCode, rr
}

func TestShardDigestDistinct(t *testing.T) {
	base := ShardDigest("req", 0, 2, "1")
	for i, other := range []string{
		ShardDigest("req", 1, 2, "1"),
		ShardDigest("req", 0, 3, "1"),
		ShardDigest("req2", 0, 2, "1"),
		ShardDigest("req", 0, 2, "2"),
	} {
		if other == base {
			t.Errorf("variant %d collides with base digest", i)
		}
	}
	if again := ShardDigest("req", 0, 2, "1"); again != base {
		t.Error("shard digest is not deterministic")
	}
}

// TestCodecRoundTrip pins the wire format: a shard result survives
// encode → JSON → decode with its stats intact and still merges
// byte-identically.
func TestCodecRoundTrip(t *testing.T) {
	m := mustModel(t, "sc")
	opts := synth.Options{MaxEvents: 3}
	const stride = 2
	shards := make([]*synth.ShardResult, stride)
	for i := range shards {
		sr, err := synth.SynthesizeShard(context.Background(), m, opts, synth.ShardSpec{Index: i, Stride: stride})
		if err != nil {
			t.Fatal(err)
		}
		wire := EncodeShardResult(fmt.Sprintf("digest-%d", i), sr)
		raw, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		var back WireShardResult
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		shards[i], err = DecodeShardResult(&back)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := shards[i].Stats, sr.Stats; got != want {
			t.Errorf("shard %d stats after round trip = %+v, want %+v", i, got, want)
		}
	}
	merged, err := synth.MergeShards(m, opts, shards)
	if err != nil {
		t.Fatal(err)
	}
	single := synth.Synthesize(m, opts)
	assertSameSuites(t, encodeResult(t, merged), encodeResult(t, single))
	if single.Stats.ExecutionsFast == 0 {
		t.Fatal("single-node run decided no executions fast; the round trip checks nothing")
	}
	if merged.Stats.ExecutionsFast != single.Stats.ExecutionsFast {
		t.Errorf("merged ExecutionsFast = %d, single-node = %d",
			merged.Stats.ExecutionsFast, single.Stats.ExecutionsFast)
	}

	// A result from a different engine version must never decode.
	sr, err := synth.SynthesizeShard(context.Background(), m, opts, synth.ShardSpec{Index: 0, Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	wire := EncodeShardResult("d", sr)
	wire.EngineVersion = "bogus"
	if _, err := DecodeShardResult(wire); err == nil {
		t.Error("engine-version-skewed result decoded")
	}
}

// TestCoordinatorRefusesForeignPartitionScheme: a worker that splits the
// program stream by another rule (or names none, as workers from before
// the class partition do) would explore other classes than its shard's,
// so registration answers 409 as for an engine-version skew.
func TestCoordinatorRefusesForeignPartitionScheme(t *testing.T) {
	c := New(fastConfig())
	defer c.Close()
	ts := httptest.NewServer(c)
	defer ts.Close()
	for _, tc := range []struct {
		req  RegisterRequest
		want int
	}{
		{RegisterRequest{Name: "old", EngineVersion: synth.EngineVersion}, http.StatusConflict},
		{RegisterRequest{Name: "foreign", EngineVersion: synth.EngineVersion, PartitionScheme: "winner-index"}, http.StatusConflict},
		{RegisterRequest{Name: "skewed", EngineVersion: "0", PartitionScheme: synth.PartitionScheme}, http.StatusConflict},
		{RegisterRequest{Name: "current", EngineVersion: synth.EngineVersion, PartitionScheme: synth.PartitionScheme}, http.StatusOK},
	} {
		body, _ := json.Marshal(tc.req)
		resp, err := http.Post(ts.URL+"/v1/cluster/workers", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("register %s (scheme %q): status %d, want %d", tc.req.Name, tc.req.PartitionScheme, resp.StatusCode, tc.want)
		}
	}
	if got := c.LiveWorkers(); got != 1 {
		t.Errorf("%d live workers, want only the current one", got)
	}
}

// TestWorkerReleasesForeignPartitionScheme: a job cut under another
// partition scheme names other classes than this worker's engine would
// explore, so the worker hands it back without running it.
func TestWorkerReleasesForeignPartitionScheme(t *testing.T) {
	released := make(chan string, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Reason string `json:"reason"`
		}
		json.NewDecoder(r.Body).Decode(&body)
		if strings.HasSuffix(r.URL.Path, "/release") {
			released <- r.URL.Path + ": " + body.Reason
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()
	wk := NewWorker(WorkerConfig{CoordinatorURL: ts.URL, Name: "w"})
	wk.synthFn = func(context.Context, memmodel.Model, synth.Options, synth.ShardSpec) (*synth.ShardResult, error) {
		t.Error("worker ran a job of a foreign partition scheme")
		return nil, errors.New("unreachable")
	}
	wk.runJob(context.Background(), ShardJob{
		ShardDigest: "d", EngineVersion: synth.EngineVersion, PartitionScheme: "winner-index",
		Model: "sc", ModelSource: "builtin", Options: store.FromSynthOptions(synth.Options{MaxEvents: 2}),
		Index: 0, Stride: 2,
	})
	select {
	case got := <-released:
		if !strings.HasPrefix(got, "/v1/cluster/shards/d/release: partition scheme mismatch") {
			t.Errorf("release %q, want one of shard d naming the scheme mismatch", got)
		}
	default:
		t.Error("worker did not release the job")
	}
}

func TestCoordinatorNoWorkers(t *testing.T) {
	c := New(fastConfig())
	defer c.Close()
	_, err := c.Synthesize(context.Background(), mustModel(t, "sc"), synth.Options{MaxEvents: 3}, nil)
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

// TestCoordinatorEndToEnd runs a request through real workers and pins
// the determinism contract at the coordinator level: the merged result
// is byte-identical to a single-node run, and a duplicate of the whole
// request coalesces onto the cached... (the flight layer above owns
// caching; here a second Synthesize just redistributes).
func TestCoordinatorEndToEnd(t *testing.T) {
	cfg := fastConfig()
	cfg.ShardsPerRequest = 3
	c := New(cfg)
	defer c.Close()
	ts := httptest.NewServer(c)
	defer ts.Close()

	startWorker(t, ts.URL, "w1", time.Second)
	startWorker(t, ts.URL, "w2", time.Second)
	waitFor(t, func() bool { return c.LiveWorkers() == 2 })

	m := mustModel(t, "sc")
	opts := synth.Options{MaxEvents: 4}
	var events atomic.Int64
	res, err := c.Synthesize(context.Background(), m, opts, func(synth.ProgressEvent) { events.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "cluster" {
		t.Errorf("Backend = %q, want cluster", res.Backend)
	}
	single := synth.Synthesize(m, opts)
	assertSameSuites(t, encodeResult(t, res), encodeResult(t, single))
	if got := metricInt(c, "shards_completed"); got != 3 {
		t.Errorf("shards_completed = %d, want 3", got)
	}
}

// TestCoordinatorAdmitReachesWorkers pins that a request's admit mode
// runs on the workers: a distributed admit-off run enumerates exactly
// what a single node does with admit off, and a distributed admit-auto
// run decides exactly as many executions fast as a single node.
func TestCoordinatorAdmitReachesWorkers(t *testing.T) {
	cfg := fastConfig()
	cfg.ShardsPerRequest = 2
	c := New(cfg)
	defer c.Close()
	ts := httptest.NewServer(c)
	defer ts.Close()

	startWorker(t, ts.URL, "w1", time.Second)
	startWorker(t, ts.URL, "w2", time.Second)
	waitFor(t, func() bool { return c.LiveWorkers() == 2 })

	m := mustModel(t, "tso")
	for _, mode := range []string{"off", "auto"} {
		opts := synth.Options{MaxEvents: 4, Admit: mode}
		res, err := c.Synthesize(context.Background(), m, opts, nil)
		if err != nil {
			t.Fatalf("admit %s: %v", mode, err)
		}
		single := synth.Synthesize(m, opts)
		assertSameSuites(t, encodeResult(t, res), encodeResult(t, single))
		if res.Admit != single.Admit {
			t.Errorf("admit %s: merged Admit = %q, single-node = %q", mode, res.Admit, single.Admit)
		}
		if res.Stats.Executions != single.Stats.Executions {
			t.Errorf("admit %s: merged Executions = %d, single-node = %d",
				mode, res.Stats.Executions, single.Stats.Executions)
		}
		if res.Stats.ExecutionsFast != single.Stats.ExecutionsFast {
			t.Errorf("admit %s: merged ExecutionsFast = %d, single-node = %d",
				mode, res.Stats.ExecutionsFast, single.Stats.ExecutionsFast)
		}
		if mode == "off" && res.Stats.ExecutionsFast != 0 {
			t.Errorf("admit off: merged ExecutionsFast = %d, want 0", res.Stats.ExecutionsFast)
		}
		if mode == "auto" && single.Stats.ExecutionsFast == 0 {
			t.Error("admit auto: single-node run decided no executions fast")
		}
	}
}

// TestCoordinatorProgressCarriesRecord pins that the coordinator forwards
// the workers' whole run record: the aggregated progress of a tso run
// with admit on reports fast-decided executions, that of a run with the
// forbidden-outcome census requested (which turns admit off) reports
// forbidden outcomes, and no forwarded count exceeds the merged result's.
func TestCoordinatorProgressCarriesRecord(t *testing.T) {
	cfg := fastConfig()
	cfg.ShardsPerRequest = 2
	c := New(cfg)
	defer c.Close()
	ts := httptest.NewServer(c)
	defer ts.Close()

	startWorker(t, ts.URL, "w1", time.Second)
	startWorker(t, ts.URL, "w2", time.Second)
	waitFor(t, func() bool { return c.LiveWorkers() == 2 })

	for _, tc := range []struct {
		name  string
		opts  synth.Options
		count func(synth.Stats) int // the counter the run must report
	}{
		{"executions_fast", synth.Options{MaxEvents: 5, Admit: "auto"},
			func(st synth.Stats) int { return st.ExecutionsFast }},
		{"forbidden_outcomes", synth.Options{MaxEvents: 5, CountForbidden: true},
			func(st synth.Stats) int { return st.ForbiddenOutcomes }},
	} {
		var mu sync.Mutex
		var events []synth.ProgressEvent
		res, err := c.Synthesize(context.Background(), mustModel(t, "tso"), tc.opts, func(ev synth.ProgressEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		reported := 0
		for _, ev := range events {
			reported = max(reported, tc.count(ev.Stats))
			if ev.Executions > res.Stats.Executions || ev.ExecutionsFast > res.Stats.ExecutionsFast ||
				ev.ForbiddenOutcomes > res.Stats.ForbiddenOutcomes || ev.Entries > res.Stats.Entries {
				t.Errorf("%s: progress %+v exceeds the merged stats %+v", tc.name, ev, res.Stats)
			}
		}
		if reported == 0 {
			t.Errorf("%d progress events, none reports %s (merged: %d)", len(events), tc.name, tc.count(res.Stats))
		}
		mu.Unlock()
	}
}

// TestCoordinatorProgressNeverRegresses pins that aggregated progress is
// monotone across a stale worker and a reassignment: a line from a worker
// that no longer holds the shard is ignored, and the reassigned shard,
// restarting from zero, does not pull the forwarded counters back.
func TestCoordinatorProgressNeverRegresses(t *testing.T) {
	cfg := fastConfig()
	cfg.ShardsPerRequest = 1
	cfg.ExpireAfter = 10 * time.Second // reassign by hand-back, not expiry
	c := New(cfg)
	defer c.Close()
	ts := httptest.NewServer(c)
	defer ts.Close()

	first, second := newGhost(t, ts.URL), newGhost(t, ts.URL)
	var mu sync.Mutex
	var forwarded []int
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Synthesize(ctx, mustModel(t, "sc"), synth.Options{MaxEvents: 3}, func(ev synth.ProgressEvent) {
			mu.Lock()
			forwarded = append(forwarded, ev.Executions)
			mu.Unlock()
		})
	}()
	defer func() {
		cancel()
		<-done
	}()

	job, ok := first.pollJob(5 * time.Second)
	if !ok {
		t.Fatal("first worker was never assigned the shard")
	}
	first.progress(job, 100)
	first.release(job)
	again, ok := second.pollJob(5 * time.Second)
	if !ok || again.ShardDigest != job.ShardDigest {
		t.Fatalf("shard not reassigned to the second worker (assigned %t)", ok)
	}
	first.progress(job, 1000) // stale: the first worker gave the shard up
	second.progress(again, 10)
	second.progress(again, 200)

	mu.Lock()
	defer mu.Unlock()
	if want := []int{100, 100, 200}; fmt.Sprint(forwarded) != fmt.Sprint(want) {
		t.Errorf("forwarded executions %v, want %v", forwarded, want)
	}
}

// TestCoordinatorWorkerKilledMidShard is the reassignment contract: a
// worker that takes a shard and dies mid-run (no heartbeats, no upload)
// is expired, its shard re-dispatched to a live worker, and the merged
// result is still byte-identical to single-node. The dead worker's late
// upload is answered 410 and never double-merged.
func TestCoordinatorWorkerKilledMidShard(t *testing.T) {
	cfg := fastConfig()
	cfg.ShardsPerRequest = 2
	c := New(cfg)
	defer c.Close()
	ts := httptest.NewServer(c)
	defer ts.Close()

	g := newGhost(t, ts.URL)

	m := mustModel(t, "sc")
	opts := synth.Options{MaxEvents: 4}
	type outcome struct {
		res *synth.Result
		err error
	}
	resc := make(chan outcome, 1)
	go func() {
		res, err := c.Synthesize(context.Background(), m, opts, nil)
		resc <- outcome{res, err}
	}()

	// The ghost grabs a shard... and then silently dies.
	job, ok := g.pollJob(5 * time.Second)
	if !ok {
		t.Fatal("ghost was never assigned a shard")
	}

	// A real worker joins; after the ghost expires, it inherits the
	// ghost's shard and completes the request.
	startWorker(t, ts.URL, "medic", time.Second)

	var oc outcome
	select {
	case oc = <-resc:
	case <-time.After(30 * time.Second):
		t.Fatal("request did not complete after worker death")
	}
	if oc.err != nil {
		t.Fatal(oc.err)
	}
	single := synth.Synthesize(m, opts)
	assertSameSuites(t, encodeResult(t, oc.res), encodeResult(t, single))
	if got := metricInt(c, "shards_stolen"); got < 1 {
		t.Errorf("shards_stolen = %d, want >= 1", got)
	}

	// The ghost rises and uploads its completed shard anyway: the flight
	// is gone, so the upload must be refused, not merged twice.
	sr, err := synth.SynthesizeShard(context.Background(), m, opts, synth.ShardSpec{Index: job.Index, Stride: job.Stride})
	if err != nil {
		t.Fatal(err)
	}
	code, rr := g.upload(job, sr)
	if code != http.StatusGone || rr.Accepted {
		t.Errorf("late upload: status %d accepted=%t, want 410 refused", code, rr.Accepted)
	}
}

// TestWorkerDrainHandsBackShard pins graceful drain: a SIGTERM'd worker
// whose shard cannot finish within the grace period hands it back, the
// shard is reassigned (not lost), merged exactly once, and the final
// suites are byte-identical to single-node.
func TestWorkerDrainHandsBackShard(t *testing.T) {
	cfg := fastConfig()
	cfg.ShardsPerRequest = 2
	cfg.ExpireAfter = 10 * time.Second // isolate drain from expiry stealing
	c := New(cfg)
	defer c.Close()
	ts := httptest.NewServer(c)
	defer ts.Close()

	// The blocker worker's engine never finishes on its own — it only
	// returns (interrupted) when drain cancels its shard context.
	blocker := NewWorker(WorkerConfig{CoordinatorURL: ts.URL, Name: "blocker", DrainGrace: 50 * time.Millisecond})
	started := make(chan string, 4)
	blocker.synthFn = func(ctx context.Context, m memmodel.Model, opts synth.Options, shard synth.ShardSpec) (*synth.ShardResult, error) {
		started <- fmt.Sprintf("%d/%d", shard.Index, shard.Stride)
		<-ctx.Done()
		return &synth.ShardResult{
			Model:   m.Name(),
			Options: opts.Normalize(),
			Shard:   shard,
			Stats:   synth.Stats{Interrupted: true},
		}, nil
	}
	bctx, bcancel := context.WithCancel(context.Background())
	bdone := make(chan struct{})
	go func() {
		defer close(bdone)
		blocker.Run(bctx)
	}()
	waitFor(t, func() bool { return c.LiveWorkers() == 1 })

	m := mustModel(t, "sc")
	opts := synth.Options{MaxEvents: 3}
	type outcome struct {
		res *synth.Result
		err error
	}
	resc := make(chan outcome, 1)
	go func() {
		res, err := c.Synthesize(context.Background(), m, opts, nil)
		resc <- outcome{res, err}
	}()

	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("blocker never received a shard")
	}
	// A healthy worker takes the other shard (and, after the drain hand-
	// back, the blocker's too).
	startWorker(t, ts.URL, "healthy", time.Second)

	// SIGTERM the blocker: its shard cannot finish, so after the grace
	// period it must be handed back, not lost.
	bcancel()
	select {
	case <-bdone:
	case <-time.After(10 * time.Second):
		t.Fatal("blocker did not drain")
	}

	var oc outcome
	select {
	case oc = <-resc:
	case <-time.After(30 * time.Second):
		t.Fatal("request did not complete after drain hand-back")
	}
	if oc.err != nil {
		t.Fatal(oc.err)
	}
	single := synth.Synthesize(m, opts)
	assertSameSuites(t, encodeResult(t, oc.res), encodeResult(t, single))
	if got := metricInt(c, "shards_released"); got < 1 {
		t.Errorf("shards_released = %d, want >= 1 (drain hand-back)", got)
	}
	if got := metricInt(c, "shard_duplicates"); got != 0 {
		t.Errorf("shard_duplicates = %d, want 0", got)
	}
	// Every merged shard was completed exactly once: 2 merges from
	// (dispatches - hand-backs).
	if got := metricInt(c, "shards_completed"); got != 2 {
		t.Errorf("shards_completed = %d, want 2", got)
	}
}

// TestWorkerReleasesPanickingShard: a model that panics in a worker's
// engine fails the shard, not the worker: the worker hands the shard back
// with the panic as the reason and stays live. The coordinator requeues
// the released shard only up to its retry budget, then fails the request.
func TestWorkerReleasesPanickingShard(t *testing.T) {
	cfg := fastConfig()
	cfg.ShardsPerRequest = 1
	cfg.MaxShardRetries = 2
	var mu sync.Mutex
	var logs []string
	cfg.Logf = func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	c := New(cfg)
	defer c.Close()
	ts := httptest.NewServer(c)
	defer ts.Close()

	boom := memmodel.Define("boom",
		[]memmodel.Axiom{{Name: "explodes", Holds: func(*exec.View) bool { panic("axiom exploded") }}},
		memmodel.Vocab{Ops: []litmus.Op{litmus.R(0), litmus.W(0)}},
		memmodel.RelaxSpec{})
	wk := NewWorker(WorkerConfig{CoordinatorURL: ts.URL, Name: "w", DrainGrace: time.Second})
	wk.synthFn = func(ctx context.Context, _ memmodel.Model, opts synth.Options, shard synth.ShardSpec) (*synth.ShardResult, error) {
		return synth.SynthesizeShard(ctx, boom, opts, shard)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	wdone := make(chan struct{})
	go func() {
		defer close(wdone)
		wk.Run(wctx)
	}()
	defer func() {
		wcancel()
		<-wdone
	}()
	waitFor(t, func() bool { return c.LiveWorkers() == 1 })

	done := make(chan error, 1)
	go func() {
		_, err := c.Synthesize(context.Background(), mustModel(t, "sc"), synth.Options{MaxEvents: 2}, nil)
		done <- err
	}()
	select {
	case err := <-done:
		want := fmt.Sprintf("failed after %d attempts", cfg.MaxShardRetries+1)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("request error = %v, want one containing %q", err, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("request still waiting after the retry budget was spent")
	}
	if got, want := metricInt(c, "shards_released"), int64(cfg.MaxShardRetries+1); got != want {
		t.Errorf("shards_released = %d, want %d", got, want)
	}

	mu.Lock()
	seen := append([]string(nil), logs...)
	mu.Unlock()
	released := false
	for _, l := range seen {
		released = released || (strings.Contains(l, "released by") && strings.Contains(l, "model boom panicked"))
	}
	if !released {
		t.Errorf("no release naming the panic; logs: %q", seen)
	}
	if c.LiveWorkers() != 1 {
		t.Errorf("worker not live after the panicking shard")
	}
}

// TestCoordinatorBackpressure pins the 429 path's engine: a request
// whose shards overflow the bounded queue is rejected with a
// SaturatedError carrying a retry hint, not queued unboundedly.
func TestCoordinatorBackpressure(t *testing.T) {
	cfg := fastConfig()
	cfg.ShardsPerRequest = 3
	cfg.QueueDepth = 2
	c := New(cfg)
	defer c.Close()
	ts := httptest.NewServer(c)
	defer ts.Close()

	newGhost(t, ts.URL) // live but never polls

	_, err := c.Synthesize(context.Background(), mustModel(t, "sc"), synth.Options{MaxEvents: 3}, nil)
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
	var sat *SaturatedError
	if !errors.As(err, &sat) || sat.RetryAfter <= 0 {
		t.Fatalf("SaturatedError not carrying a retry hint: %v", err)
	}
	if got := metricInt(c, "saturated_rejects"); got != 1 {
		t.Errorf("saturated_rejects = %d, want 1", got)
	}
}

// TestCoordinatorRequeuesRejectedUpload pins that a refused upload frees
// its worker: a shard whose upload the coordinator rejects goes back to
// the queue, so the same worker is dispatched it again instead of being
// told it is still busy, and a shard rejected past the retry budget fails
// the request instead of leaving it waiting.
func TestCoordinatorRequeuesRejectedUpload(t *testing.T) {
	cfg := fastConfig()
	cfg.MaxShardRetries = 2
	c := New(cfg)
	defer c.Close()
	ts := httptest.NewServer(c)
	defer ts.Close()
	g := newGhost(t, ts.URL)

	m := mustModel(t, "sc")
	opts := synth.Options{MaxEvents: 3}
	sr, err := synth.SynthesizeShard(context.Background(), m, opts, synth.ShardSpec{Index: 0, Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Entries) == 0 {
		t.Fatal("shard found no entries to corrupt")
	}
	errc := make(chan error, 1)
	go func() {
		_, err := c.Synthesize(context.Background(), m, opts, nil)
		errc <- err
	}()

	for attempt := 0; attempt <= cfg.MaxShardRetries; attempt++ {
		job, ok := g.pollJob(5 * time.Second)
		if !ok {
			t.Fatalf("attempt %d: the worker whose upload was rejected got no shard", attempt)
		}
		wire := EncodeShardResult(job.ShardDigest, sr)
		wire.Entries[0].Key = "not-the-witness-key"
		body, _ := json.Marshal(wire)
		if code := g.post("/v1/cluster/shards/"+job.ShardDigest+"/result", string(body)); code != http.StatusBadRequest {
			t.Fatalf("attempt %d: corrupt upload status %d, want 400", attempt, code)
		}
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("request succeeded although every upload was rejected")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request still waiting after the retry budget was spent")
	}
	if got, want := metricInt(c, "shards_rejected"), int64(cfg.MaxShardRetries+1); got != want {
		t.Errorf("shards_rejected = %d, want %d", got, want)
	}
	if got := metricInt(c, "merges"); got != 0 {
		t.Errorf("merges = %d, want 0", got)
	}
}

// TestCoordinatorRefusesDigestInFlight pins the one-caller contract: the
// coordinator does not coalesce, so a second Synthesize for a digest
// whose flight is still queued is an error (its shard digests would
// collide), and leaves the first flight untouched. Once the first caller
// gives up, its flight is cancelled and the digest is accepted again.
func TestCoordinatorRefusesDigestInFlight(t *testing.T) {
	cfg := fastConfig()
	cfg.ShardsPerRequest = 2
	cfg.ExpireAfter = 10 * time.Second
	c := New(cfg)
	defer c.Close()
	ts := httptest.NewServer(c)
	defer ts.Close()

	newGhost(t, ts.URL) // live but never polls: the first flight stays queued

	m := mustModel(t, "sc")
	opts := synth.Options{MaxEvents: 3}
	ctx, cancel := context.WithCancel(context.Background())
	first := make(chan error, 1)
	go func() {
		_, err := c.Synthesize(ctx, m, opts, nil)
		first <- err
	}()
	waitFor(t, func() bool { return queueDepth(c) == 2 })

	_, err := c.Synthesize(context.Background(), m, opts, nil)
	if err == nil || errors.Is(err, ErrSaturated) || errors.Is(err, ErrNoWorkers) {
		t.Fatalf("second Synthesize of an in-flight digest: err = %v, want the in-flight error", err)
	}
	if got := queueDepth(c); got != 2 {
		t.Errorf("queue depth after refusal = %d, want 2", got)
	}
	if got := metricInt(c, "requests_distributed"); got != 1 {
		t.Errorf("requests_distributed = %d, want 1", got)
	}

	cancel()
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("first Synthesize: err = %v, want context.Canceled", err)
	}
	if got := queueDepth(c); got != 0 {
		t.Errorf("queue depth after the caller gave up = %d, want 0", got)
	}
	if got := metricInt(c, "requests_abandoned"); got != 1 {
		t.Errorf("requests_abandoned = %d, want 1", got)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go c.Synthesize(ctx2, m, opts, nil)
	waitFor(t, func() bool { return queueDepth(c) == 2 })
}

func queueDepth(c *Coordinator) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nQueued
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached within 10s")
}
