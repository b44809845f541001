// End-to-end cluster tests through the real HTTP server layer: a
// coordinator memsynthd node plus worker processes (in-process, real
// Worker loops over httptest transports). These live in an external test
// package because internal/server imports internal/cluster.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"memsynth/internal/cluster"
	"memsynth/internal/memmodel"
	"memsynth/internal/server"
	"memsynth/internal/store"
	"memsynth/internal/synth"
)

// node is one in-process memsynthd: an HTTP server over its own store,
// optionally coordinating a cluster or reading through a peer.
type node struct {
	srv   *server.Server
	ts    *httptest.Server
	store *store.Store
	coord *cluster.Coordinator
}

func newNode(t *testing.T, mutate func(*server.Config)) *node {
	t.Helper()
	st, err := store.Open(t.TempDir(), 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{Store: st, Logf: t.Logf}
	if mutate != nil {
		mutate(&cfg)
	}
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return &node{srv: srv, ts: ts, store: st}
}

// newCoordinatorNode builds a coordinator memsynthd with test-tight
// cluster timings, and cleans the coordinator up after the server so
// in-flight HTTP requests drain first.
func newCoordinatorNode(t *testing.T, mutate func(*cluster.Config)) *node {
	t.Helper()
	st, err := store.Open(t.TempDir(), 16)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cluster.Config{
		HeartbeatInterval: 40 * time.Millisecond,
		ExpireAfter:       250 * time.Millisecond,
		PollWait:          150 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&ccfg)
	}
	coord := cluster.New(ccfg)
	srv := server.New(server.Config{Store: st, Cluster: coord, Logf: t.Logf})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		coord.Close()
	})
	return &node{srv: srv, ts: ts, store: st, coord: coord}
}

// joinWorker attaches a real worker loop to the coordinator node; the
// returned stop function drains it (finish or hand back, then leave).
func joinWorker(t *testing.T, coordURL, name string, grace time.Duration) (stop func()) {
	t.Helper()
	wk := cluster.NewWorker(cluster.WorkerConfig{
		CoordinatorURL: coordURL,
		Name:           name,
		DrainGrace:     grace,
	})
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
		case <-time.After(15 * time.Second):
			t.Error("worker did not drain within 15s")
		}
	}
	t.Cleanup(stop)
	return stop
}

// synthesizeHTTP posts a synthesize request and returns the response.
func synthesizeHTTP(t *testing.T, baseURL string, body map[string]any) (*http.Response, string) {
	t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := http.Post(baseURL+"/v1/synthesize", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(text)
}

// singleNodeText synthesizes locally and renders the union suite exactly
// as the server would, for byte comparison with cluster responses.
func singleNodeText(t *testing.T, model string, opts synth.Options) (digest, text string) {
	t.Helper()
	m, err := memmodel.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	res := synth.Synthesize(m, opts)
	ss, err := store.Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	union, ok := ss.Text(store.UnionSuite)
	if !ok {
		t.Fatal("no union suite")
	}
	return ss.Manifest.Digest, union
}

// TestClusterEndToEndHTTP is the 3-node smoke: a coordinator and two
// workers serve a cold synthesize request over HTTP; the suite bytes and
// store digest must equal a single-node run, the second request must hit
// the coordinator's store, and the stored manifest must record the
// cluster backend.
func TestClusterEndToEndHTTP(t *testing.T) {
	coord := newCoordinatorNode(t, func(c *cluster.Config) { c.ShardsPerRequest = 3 })
	joinWorker(t, coord.ts.URL, "w1", time.Second)
	joinWorker(t, coord.ts.URL, "w2", time.Second)
	waitLive(t, coord, 2)

	opts := synth.Options{MaxEvents: 4}
	wantDigest, wantText := singleNodeText(t, "sc", opts)

	req := map[string]any{"model": "sc", "max_events": 4, "format": "litmus"}
	resp, text := synthesizeHTTP(t, coord.ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, text)
	}
	if got := resp.Header.Get("X-Memsynth-Digest"); got != wantDigest {
		t.Errorf("digest %s, want %s", got, wantDigest)
	}
	if resp.Header.Get("X-Memsynth-Cached") != "false" {
		t.Error("cold request reported cached")
	}
	if text != wantText {
		t.Error("cluster suite bytes differ from single-node")
	}

	ss, err := coord.store.Get(wantDigest)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Manifest.Backend != "cluster" {
		t.Errorf("stored Backend = %q, want cluster", ss.Manifest.Backend)
	}

	resp2, text2 := synthesizeHTTP(t, coord.ts.URL, req)
	if resp2.Header.Get("X-Memsynth-Cached") != "true" {
		t.Error("second request missed the cache")
	}
	if text2 != wantText {
		t.Error("cached suite bytes differ")
	}
}

// TestClusterKillWorkerMidRunHTTP kills one of two workers while a
// request is in flight; the coordinator reassigns its shards and the
// response must still be byte-identical to single-node.
func TestClusterKillWorkerMidRunHTTP(t *testing.T) {
	coord := newCoordinatorNode(t, func(c *cluster.Config) { c.ShardsPerRequest = 4 })
	joinWorker(t, coord.ts.URL, "survivor", time.Second)
	// The victim's drain grace is near-zero: on stop it hands back any
	// in-flight shard almost immediately instead of finishing it.
	stopVictim := joinWorker(t, coord.ts.URL, "victim", time.Millisecond)
	waitLive(t, coord, 2)

	// power@4 runs long enough (~0.5s+ per shard) that the kill lands
	// while shards are genuinely in flight.
	model := "power"
	if testing.Short() {
		model = "tso"
	}
	opts := synth.Options{MaxEvents: 4}
	wantDigest, wantText := singleNodeText(t, model, opts)

	kill := time.AfterFunc(150*time.Millisecond, stopVictim)
	defer kill.Stop()

	resp, text := synthesizeHTTP(t, coord.ts.URL, map[string]any{
		"model": model, "max_events": 4, "format": "litmus",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, text)
	}
	if got := resp.Header.Get("X-Memsynth-Digest"); got != wantDigest {
		t.Errorf("digest %s, want %s", got, wantDigest)
	}
	if text != wantText {
		t.Error("suite bytes differ from single-node after worker kill")
	}
}

// TestClusterCatModelDistribution registers a cat definition on the
// coordinator and synthesizes it through the cluster: workers must
// rebuild the model from the shipped definition (they have no registry)
// and the result must match a local compile+synthesize.
func TestClusterCatModelDistribution(t *testing.T) {
	src, err := os.ReadFile("../../examples/cat/sc.cat")
	if err != nil {
		t.Fatal(err)
	}
	coord := newCoordinatorNode(t, func(c *cluster.Config) { c.ShardsPerRequest = 2 })
	joinWorker(t, coord.ts.URL, "w1", time.Second)
	waitLive(t, coord, 1)

	resp, err := http.Post(coord.ts.URL+"/v1/models", "text/plain", bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("model registration: status %d", resp.StatusCode)
	}

	r, text := synthesizeHTTP(t, coord.ts.URL, map[string]any{
		"model": "sc", "max_events": 3, "format": "litmus",
	})
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", r.StatusCode, text)
	}
	// The registered model shadows the builtin of the same name but
	// synthesizes the same suites (the example is a transcription).
	_, wantText := singleNodeText(t, "sc", synth.Options{MaxEvents: 3})
	if text != wantText {
		t.Error("cat-model cluster suite differs from single-node")
	}
}

// TestClusterPeerReadThroughHTTP exercises the shared cache tier: a
// worker node whose store misses fetches the suite bundle from the
// coordinator instead of re-synthesizing, and degrades to local
// synthesis when the coordinator has no entry either.
func TestClusterPeerReadThroughHTTP(t *testing.T) {
	origin := newNode(t, nil)

	// Populate the origin's store.
	resp, _ := synthesizeHTTP(t, origin.ts.URL, map[string]any{"model": "tso", "max_events": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seeding origin: status %d", resp.StatusCode)
	}

	edge := newNode(t, func(cfg *server.Config) {
		cfg.Peer = cluster.NewPeerClient(origin.ts.URL, nil)
	})
	resp, _ = synthesizeHTTP(t, edge.ts.URL, map[string]any{"model": "tso", "max_events": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edge request: status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Memsynth-Cached") != "true" {
		t.Error("edge node did not serve from the peer tier")
	}
	if !strings.Contains(metricsBody(t, edge.ts.URL), `"peer_hits": 1`) {
		t.Error("peer_hits metric not incremented")
	}

	// A digest the origin has never seen: the peer miss must fall through
	// to local synthesis, not fail the request.
	resp, _ = synthesizeHTTP(t, edge.ts.URL, map[string]any{"model": "sc", "max_events": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edge cold request: status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Memsynth-Cached") != "false" {
		t.Error("cold edge request claimed a cache hit")
	}
}

// TestClusterCoalescesOnceHTTP pins the one coalescing layer: two
// concurrent identical cold requests to a coordinator node share the
// server's single flight, so the coordinator distributes the request
// once, and both responses carry the same digest and suite bytes.
//
// A placeholder registration that never polls keeps the fleet non-empty
// while the first request's shard sits queued; it leaves once the second
// request has joined the flight, and one real worker then runs the shard.
func TestClusterCoalescesOnceHTTP(t *testing.T) {
	coord := newCoordinatorNode(t, func(c *cluster.Config) { c.ShardsPerRequest = 1 })
	body, _ := json.Marshal(cluster.RegisterRequest{Name: "placeholder", EngineVersion: synth.EngineVersion, PartitionScheme: synth.PartitionScheme})
	resp, err := http.Post(coord.ts.URL+"/v1/cluster/workers", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var reg cluster.RegisterResponse
	err = json.NewDecoder(resp.Body).Decode(&reg)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	type reply struct {
		code   int
		digest string
		text   string
		err    error
	}
	replies := make(chan reply, 2)
	send := func() {
		resp, err := http.Post(coord.ts.URL+"/v1/synthesize", "application/json",
			strings.NewReader(`{"model":"sc","max_events":4,"format":"litmus"}`))
		if err != nil {
			replies <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		text, err := io.ReadAll(resp.Body)
		replies <- reply{resp.StatusCode, resp.Header.Get("X-Memsynth-Digest"), string(text), err}
	}
	go send()
	waitMetrics(t, coord.ts.URL, func(m nodeMetrics) bool { return m.Cluster.RequestsDistributed == 1 })
	go send()
	waitMetrics(t, coord.ts.URL, func(m nodeMetrics) bool { return m.Coalesced == 1 })

	req, _ := http.NewRequest(http.MethodDelete, coord.ts.URL+"/v1/cluster/workers/"+reg.WorkerID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	joinWorker(t, coord.ts.URL, "w1", time.Second)

	wantDigest, wantText := singleNodeText(t, "sc", synth.Options{MaxEvents: 4})
	for i := 0; i < 2; i++ {
		var r reply
		select {
		case r = <-replies:
		case <-time.After(30 * time.Second):
			t.Fatal("coalesced requests did not complete")
		}
		if r.err != nil || r.code != http.StatusOK {
			t.Fatalf("status %d (%v): %s", r.code, r.err, r.text)
		}
		if r.digest != wantDigest || r.text != wantText {
			t.Errorf("response %d: digest %.12s, want %.12s (bytes equal: %t)", i, r.digest, wantDigest, r.text == wantText)
		}
	}
	m := readMetrics(t, coord.ts.URL)
	if m.Cluster.RequestsDistributed != 1 {
		t.Errorf("coordinator requests_distributed = %d, want 1", m.Cluster.RequestsDistributed)
	}
	if m.Coalesced != 1 {
		t.Errorf("server coalesced_requests = %d, want 1", m.Coalesced)
	}
}

// nodeMetrics is the part of a node's /metrics the cluster tests read.
type nodeMetrics struct {
	Coalesced int64 `json:"coalesced_requests"`
	Cluster   struct {
		RequestsDistributed int64 `json:"requests_distributed"`
	} `json:"cluster"`
}

func readMetrics(t *testing.T, baseURL string) nodeMetrics {
	t.Helper()
	var m nodeMetrics
	if err := json.Unmarshal([]byte(metricsBody(t, baseURL)), &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// waitMetrics blocks until the node's metrics satisfy cond.
func waitMetrics(t *testing.T, baseURL string, cond func(nodeMetrics) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond(readMetrics(t, baseURL)) {
		if time.Now().After(deadline) {
			t.Fatalf("metrics never reached the expected state: %+v", readMetrics(t, baseURL))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterSaturated429 pins the HTTP backpressure contract: when the
// dispatch queue cannot hold a request's shards, the server answers 429
// with a Retry-After hint instead of queueing unboundedly.
func TestClusterSaturated429(t *testing.T) {
	coord := newCoordinatorNode(t, func(c *cluster.Config) {
		c.ShardsPerRequest = 3
		c.QueueDepth = 1
	})
	// A live worker that never polls: the fleet is non-empty, so the
	// request is distributable, but nothing drains the queue.
	body, _ := json.Marshal(cluster.RegisterRequest{Name: "idle", EngineVersion: synth.EngineVersion, PartitionScheme: synth.PartitionScheme})
	resp, err := http.Post(coord.ts.URL+"/v1/cluster/workers", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d", resp.StatusCode)
	}

	resp, text := synthesizeHTTP(t, coord.ts.URL, map[string]any{"model": "sc", "max_events": 3})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, text)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// waitLive blocks until the coordinator sees n registered live workers.
func waitLive(t *testing.T, n *node, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for n.coord.LiveWorkers() != want {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never saw %d live workers", want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func metricsBody(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestClusterStatusEndpoint sanity-checks the operator view.
func TestClusterStatusEndpoint(t *testing.T) {
	coord := newCoordinatorNode(t, nil)
	joinWorker(t, coord.ts.URL, "w1", time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(coord.ts.URL + "/v1/cluster/status")
		if err != nil {
			t.Fatal(err)
		}
		var status struct {
			Workers []struct {
				Name string `json:"name"`
			} `json:"workers"`
		}
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(status.Workers) == 1 && status.Workers[0].Name == "w1" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never appeared in status: %+v", status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterCorruptUploadHTTP uploads a shard result whose witnesses
// have no reads-from slots through a coordinator memsynthd. The upload
// must be refused with 400 before it reaches the merge (merged, its
// entries would panic the server while it persists the suite), the shard
// must be dispatched again, and a correct upload must then complete the
// request byte-identically to a single-node run.
func TestClusterCorruptUploadHTTP(t *testing.T) {
	coord := newCoordinatorNode(t, nil)
	opts := synth.Options{MaxEvents: 3}
	wantDigest, wantText := singleNodeText(t, "sc", opts)

	post := func(path string, body any) *http.Response {
		t.Helper()
		raw, _ := json.Marshal(body)
		resp, err := http.Post(coord.ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := post("/v1/cluster/workers", cluster.RegisterRequest{Name: "raw", EngineVersion: synth.EngineVersion, PartitionScheme: synth.PartitionScheme})
	var reg cluster.RegisterResponse
	json.NewDecoder(resp.Body).Decode(&reg)
	resp.Body.Close()
	waitLive(t, coord, 1)
	poll := func() cluster.ShardJob {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			resp := post("/v1/cluster/workers/"+reg.WorkerID+"/poll", nil)
			if resp.StatusCode == http.StatusOK {
				var job cluster.ShardJob
				err := json.NewDecoder(resp.Body).Decode(&job)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				return job
			}
			resp.Body.Close()
		}
		t.Fatal("no shard dispatched")
		return cluster.ShardJob{}
	}
	upload := func(job cluster.ShardJob, wire *cluster.WireShardResult) int {
		t.Helper()
		resp := post("/v1/cluster/shards/"+job.ShardDigest+"/result?worker="+reg.WorkerID, wire)
		resp.Body.Close()
		return resp.StatusCode
	}

	type reply struct {
		code   int
		digest string
		text   string
	}
	done := make(chan reply, 1)
	go func() {
		raw, _ := json.Marshal(map[string]any{"model": "sc", "max_events": 3, "format": "litmus"})
		resp, err := http.Post(coord.ts.URL+"/v1/synthesize", "application/json", bytes.NewReader(raw))
		if err != nil {
			done <- reply{text: err.Error()}
			return
		}
		defer resp.Body.Close()
		text, _ := io.ReadAll(resp.Body)
		done <- reply{resp.StatusCode, resp.Header.Get("X-Memsynth-Digest"), string(text)}
	}()

	job := poll()
	sr, err := synth.SynthesizeShard(context.Background(), memmodel.SC(), job.Options.SynthOptions(),
		synth.ShardSpec{Index: job.Index, Stride: job.Stride})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := cluster.EncodeShardResult(job.ShardDigest, sr)
	for i := range corrupt.Entries {
		corrupt.Entries[i].RF = []int{}
	}
	if code := upload(job, corrupt); code != http.StatusBadRequest {
		t.Fatalf("corrupt upload: status %d, want 400", code)
	}
	if again := poll(); again.ShardDigest != job.ShardDigest {
		t.Fatalf("dispatched shard %.12s after the rejected upload, want %.12s again", again.ShardDigest, job.ShardDigest)
	}
	if code := upload(job, cluster.EncodeShardResult(job.ShardDigest, sr)); code != http.StatusOK {
		t.Fatalf("correct upload: status %d, want 200", code)
	}
	select {
	case r := <-done:
		if r.code != http.StatusOK {
			t.Fatalf("synthesize: status %d: %s", r.code, r.text)
		}
		if r.digest != wantDigest || r.text != wantText {
			t.Error("suite after a rejected upload differs from single-node")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("synthesize did not finish after the correct upload")
	}
}
