package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"memsynth/internal/cluster"
	"memsynth/internal/memmodel"
	"memsynth/internal/store"
	"memsynth/internal/synth"
)

// newLayerResult starts a traced run's result with every per-layer metric
// of BENCHMARK.json at 0: a layer the workload does not reach reads 0.
func newLayerResult(e *env) *result {
	r := newResult()
	for _, m := range e.spec.PerLayer {
		r.set(m.Name, 0, m.Unit)
	}
	return r
}

// layer sets a per-layer metric, keeping the unit perLayer gives it.
func layer(r *result, name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("perfbench: unlisted per-layer metric " + name)
	}
	m.Value = v
	r.Metrics[name] = m
}

func setEngineLayers(r *result, l *engineLayers) {
	raw := float64(l.emit.calls)
	busy := float64(l.genNS - l.emit.ns)
	layer(r, "synth.gen.programs_raw", raw)
	layer(r, "synth.gen.busy_s", busy/1e9)
	layer(r, "synth.gen.ns_per_program", ratio(busy, raw))
	layer(r, "canon.program_key.calls", float64(l.programKey.calls))
	layer(r, "canon.program_key.ns_per_call", l.programKey.meanNS())
	layer(r, "canon.dedupe.distinct_ratio", ratio(float64(l.distinct), raw))
	// Enumeration's own time: the reads-from filter and the visit
	// callback are excluded.
	self := float64(l.enumerate.ns - l.decide.ns - l.visit.ns)
	layer(r, "exec.enumerate.executions", float64(l.visit.calls))
	layer(r, "exec.enumerate.self_s", self/1e9)
	layer(r, "exec.enumerate.ns_per_execution", ratio(self, float64(l.visit.calls)))
	layer(r, "admit.decide.calls", float64(l.decide.calls))
	layer(r, "admit.decide.ns_per_call", l.decide.meanNS())
	layer(r, "admit.decide.refuted_ratio", ratio(float64(l.refuted), float64(l.decide.calls)))
	layer(r, "admit.executions_fast", float64(l.fast))
	layer(r, "minimal.check.calls", float64(l.check.calls))
	layer(r, "minimal.check.ns_per_call", l.check.meanNS())
	layer(r, "minimal.check.forbidden_ratio", ratio(float64(l.forbidden), float64(l.check.calls)))
	layer(r, "minimal.check.minimal_ratio", ratio(float64(l.minimal), float64(l.check.calls)))
	layer(r, "canon.key.calls", float64(l.key.calls))
	layer(r, "canon.key.ns_per_call", l.key.meanNS())
	layer(r, "litmus.format.ms", l.format.meanNS()/1e6)
}

// replayChecked replays (m, opts) untraced, then traced, and checks the
// traced replay's suites against the pin and its counts against the
// untraced engine's Stats. It returns the traced minus the untraced replay
// time.
func replayChecked(tr *tracer, parent int, name string, m memmodel.Model, opts synth.Options, l *engineLayers, pin requestPin, engine synth.Stats) (time.Duration, error) {
	t0 := time.Now()
	if _, err := replay(nil, 0, m, opts, &engineLayers{}); err != nil {
		return 0, err
	}
	untraced := time.Since(t0)
	sp := tr.begin(parent, "replay "+name)
	t0 = time.Now()
	r, err := replay(tr, sp, m, opts, l)
	traced := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.begin(parent, "litmus.FormatSuite "+name)
	f0 := time.Now()
	texts := suiteTexts(r)
	l.format.add(true, f0)
	tr.end(sp)
	if err := checkResult(pin, r, texts); err != nil {
		return 0, fmt.Errorf("replay of %s: %w", name, err)
	}
	if err := sameCounts(name, r.Stats, engine); err != nil {
		return 0, err
	}
	return traced - untraced, nil
}

// storeLayers accumulates calls into the store.
type storeLayers struct {
	encode, put, hit, disk acc
	bytes                  int64
}

// putResult is the store's write path: Encode, then PutStored.
func (s *storeLayers) putResult(st *store.Store, res *synth.Result) error {
	t0 := time.Now()
	ss, err := store.Encode(res)
	s.encode.add(true, t0)
	if err != nil {
		return err
	}
	t0 = time.Now()
	_, err = st.PutStored(ss)
	s.put.add(true, t0)
	if err != nil {
		return err
	}
	manifest, err := json.MarshalIndent(ss.Manifest, "", "  ")
	if err != nil {
		return err
	}
	s.bytes += int64(len(manifest)) + 1
	for _, text := range ss.Texts {
		s.bytes += int64(len(text))
	}
	return nil
}

// get times one Get, telling read-cache hits from disk loads by the
// store's counters.
func (s *storeLayers) get(st *store.Store, digest string) (*store.StoredSuite, error) {
	before := st.Counters()
	t0 := time.Now()
	ss, err := st.Get(digest)
	if err != nil {
		return nil, err
	}
	if st.Counters().CacheHits > before.CacheHits {
		s.hit.add(true, t0)
	} else {
		s.disk.add(true, t0)
	}
	return ss, nil
}

func (s *storeLayers) fold(tr *tracer, id int) {
	tr.fold(id, "", "store.Encode", s.encode)
	tr.fold(id, "", "store.Store.PutStored", s.put)
	tr.fold(id, "", "store.Store.Get hit", s.hit)
	tr.fold(id, "", "store.Store.Get disk", s.disk)
}

func setStoreLayers(r *result, s *storeLayers) {
	layer(r, "store.encode.ms", s.encode.meanNS()/1e6)
	layer(r, "store.put.ms_per_call", s.put.meanNS()/1e6)
	layer(r, "store.put.bytes", ratio(float64(s.bytes), float64(s.put.calls)))
	layer(r, "store.get.lru_hits", float64(s.hit.calls))
	layer(r, "store.get.disk_loads", float64(s.disk.calls))
	layer(r, "store.get.us_per_hit", s.hit.meanNS()/1e3)
	layer(r, "store.get.ms_per_disk_load", s.disk.meanNS()/1e6)
}

// daemonMetrics is the part of a memsynthd's /metrics the traced runs read.
type daemonMetrics struct {
	StoreHits   float64 `json:"store_hits"`
	StoreMisses float64 `json:"store_misses"`
	// Cluster is the coordinator's map: counters and gauges.
	Cluster map[string]any `json:"cluster"`
}

func readMetrics(c *http.Client, base string) (*daemonMetrics, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m daemonMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return &m, nil
}

func setServerLayers(r *result, m *daemonMetrics, cachedP50ms float64) {
	layer(r, "server.store_hits", m.StoreHits)
	layer(r, "server.store_misses", m.StoreMisses)
	// What a cached request costs beyond the store lookup itself.
	layer(r, "server.cached.overhead_us", cachedP50ms*1e3-r.Metrics["store.get.us_per_hit"].Value)
}

// finish closes the root span and writes the trace.
func finish(e *env, tr *tracer, root int, r *result) (*result, error) {
	tr.end(root)
	if err := tr.write(e.name, e.seed); err != nil {
		return nil, err
	}
	return r, nil
}

// cliCachedLoads is how many -store hit loads the traced CLI run times.
const cliCachedLoads = 100

func tracedCLI(e *env, spec engineSpec) (*result, error) {
	pin, ok := e.pins.Engine[spec.pin]
	if !ok {
		return nil, fmt.Errorf("no pin for %s", spec.pin)
	}
	m, err := memmodel.ByName(spec.model)
	if err != nil {
		return nil, err
	}
	r := newLayerResult(e)
	tr := newTracer()
	root := tr.begin(0, spec.name)

	// The untraced engine run whose Stats the replay must reproduce.
	sp := tr.begin(root, "synth.SynthesizeContext")
	eng, err := synth.SynthesizeContext(context.Background(), m, spec.opts)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	r.count(checkEngineResult(spec, pin, eng, suiteTexts(eng)))

	var l engineLayers
	overhead, err := replayChecked(tr, root, spec.name, m, spec.opts, &l, pin, eng.Stats)
	r.count(err)
	setEngineLayers(r, &l)
	layer(r, "trace.overhead_s", overhead.Seconds())

	// The CLI's -store path: persist once, then load it back as repeated
	// `memsynth -store` runs do, each with a fresh store handle.
	var s storeLayers
	sp = tr.begin(root, "store")
	dir, err := os.MkdirTemp(e.scratch, "store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	r.count(s.putResult(st, eng))
	for i := 0; i < cliCachedLoads; i++ {
		r.count(cliLoad(&s, dir, pin))
	}
	s.fold(tr, sp)
	tr.end(sp)
	setStoreLayers(r, &s)
	return finish(e, tr, root, r)
}

func cliLoad(s *storeLayers, dir string, pin requestPin) error {
	st, err := store.Open(dir, 0)
	if err != nil {
		return err
	}
	ss, err := s.get(st, pin.Digest)
	if err != nil {
		return err
	}
	res, err := ss.Result()
	if err != nil {
		return err
	}
	return checkText(pin, store.UnionSuite, formatSuite(res.Union), len(res.Union.Entries))
}

// clusterRT times the workers' calls to the coordinator's /v1/cluster API
// from the client side.
type clusterRT struct {
	base http.RoundTripper
	tr   *tracer
	root int

	mu sync.Mutex
	// since is when the timed request was sent: a poll's wait counts from
	// then, not from when the idle worker started polling.
	since              time.Time
	pollWait, upload   acc
	uploadBytes, posts int64
}

func (rt *clusterRT) RoundTrip(req *http.Request) (*http.Response, error) {
	kind := ""
	for _, k := range []string{"poll", "result", "progress"} {
		if strings.HasSuffix(req.URL.Path, "/"+k) {
			kind = k
		}
	}
	if kind == "" {
		return rt.base.RoundTrip(req)
	}
	id := rt.tr.begin(rt.root, "cluster "+kind)
	t0 := time.Now()
	resp, err := rt.base.RoundTrip(req)
	t1 := time.Now()
	rt.tr.end(id)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	switch {
	case kind == "poll" && err == nil && resp.StatusCode == http.StatusOK && !rt.since.IsZero():
		if t0.Before(rt.since) {
			t0 = rt.since
		}
		rt.pollWait.calls++
		rt.pollWait.ns += int64(t1.Sub(t0))
	case kind == "result":
		rt.upload.calls++
		rt.upload.ns += int64(t1.Sub(t0))
		rt.uploadBytes += req.ContentLength
	case kind == "progress":
		rt.posts++
	}
	return resp, err
}

// clusterCachedTrace is how long the traced cluster run sends cached
// requests, for the server's overhead.
const clusterCachedTrace = 2 * time.Second

// cachedRequests sends the cold request again, one at a time, for d, and
// returns how many it sent and their median latency in milliseconds.
func cachedRequests(r *result, f *clusterFixture, pin requestPin, d time.Duration) (int, float64) {
	var lat latencies
	for until := time.Now().Add(d); time.Now().Before(until); {
		t0 := time.Now()
		resp, data, err := synthesize(f.client, f.ts.URL, request(power5))
		elapsed := time.Since(t0)
		if err == nil {
			err = checkResponse(pin, resp, data)
		}
		r.count(err)
		if err == nil {
			lat.add(elapsed)
		}
	}
	return len(lat), median(lat)
}

func tracedCluster(e *env) (*result, error) {
	pin, ok := e.pins.Engine[power5.pin]
	if !ok {
		return nil, fmt.Errorf("no pin for %s", power5.pin)
	}
	r := newLayerResult(e)
	tr := newTracer()
	root := tr.begin(0, "cluster-power5")
	rt := &clusterRT{base: http.DefaultTransport.(*http.Transport).Clone(), tr: tr, root: root}
	f, err := clusterSetups(e, func() *http.Client { return &http.Client{Transport: rt} }).sample(1)
	if err != nil {
		return nil, err
	}

	rt.mu.Lock()
	rt.since = time.Now()
	rt.mu.Unlock()
	sp := tr.begin(root, "POST /v1/synthesize cold")
	check, sr := clusterCold(f, pin)
	tr.end(sp)
	err = check()
	r.count(err)
	sp = tr.begin(root, "POST /v1/synthesize cached")
	cachedN, cachedP50ms := cachedRequests(r, f, pin, clusterCachedTrace)
	tr.end(sp)
	dm, merr := readMetrics(f.client, f.ts.URL)
	f.close()
	if merr != nil {
		return nil, merr
	}
	rt.mu.Lock()
	layer(r, "cluster.poll.wait_ms", float64(rt.pollWait.ns)/1e6)
	layer(r, "cluster.upload.ms", rt.upload.meanNS()/1e6)
	layer(r, "cluster.upload.bytes", ratio(float64(rt.uploadBytes), float64(rt.upload.calls)))
	layer(r, "cluster.progress.posts", float64(rt.posts))
	rt.mu.Unlock()
	n, _ := dm.Cluster["shards_dispatched"].(float64) // absent until first counted
	layer(r, "cluster.shards_dispatched", n)

	// The shard primitive the workers run, called directly: each shard
	// with one engine worker, a shard that explores almost nothing (its
	// time is the full-stream regeneration every shard pays), the wire
	// codec, and the merge.
	m, err := memmodel.ByName(power5.model)
	if err != nil {
		return nil, err
	}
	opts := power5.opts
	opts.Workers = 1
	var busy, codec time.Duration
	var decoded []*synth.ShardResult
	for i := 0; i < clusterWorkers; i++ {
		spec := synth.ShardSpec{Index: i, Stride: clusterWorkers}
		sp := tr.begin(root, fmt.Sprintf("synth.SynthesizeShard %d/%d", i, clusterWorkers))
		t0 := time.Now()
		shard, err := synth.SynthesizeShard(context.Background(), m, opts, spec)
		busy += time.Since(t0)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin(root, "cluster codec")
		t0 = time.Now()
		d, err := cluster.DecodeShardResult(cluster.EncodeShardResult(cluster.ShardDigest(pin.Digest, i, clusterWorkers, synth.EngineVersion), shard))
		codec += time.Since(t0)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		decoded = append(decoded, d)
	}
	sp = tr.begin(root, "synth.SynthesizeShard regeneration only")
	t0 := time.Now()
	if _, err := synth.SynthesizeShard(context.Background(), m, opts, synth.ShardSpec{Index: 0, Stride: 1 << 30}); err != nil {
		return nil, err
	}
	regen := time.Since(t0)
	tr.end(sp)
	sp = tr.begin(root, "synth.MergeShards")
	t0 = time.Now()
	merged, err := synth.MergeShards(m, opts, decoded)
	mergeD := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	r.count(checkEngineResult(power5, pin, merged, suiteTexts(merged)))
	layer(r, "cluster.codec.ms", millis(codec))
	layer(r, "synth.shard.busy_s", busy.Seconds())
	layer(r, "synth.shard.regen_share", ratio(regen.Seconds(), busy.Seconds()/clusterWorkers))
	layer(r, "synth.merge.ms", millis(mergeD))

	// The engine replay; its counts must equal the merged shards' and
	// the cluster response's.
	var l engineLayers
	overhead, err := replayChecked(tr, root, power5.pin, m, power5.opts, &l, pin, merged.Stats)
	r.count(err)
	if sr != nil {
		st := sr.Stats
		r.count(sameCounts("cluster response", synth.Stats{
			ProgramsRaw: st.ProgramsRaw, Programs: st.Programs, Executions: st.Executions,
			ExecutionsFast: st.ExecutionsFast, Entries: sr.Suites[store.UnionSuite],
		}, merged.Stats))
	}
	setEngineLayers(r, &l)
	layer(r, "trace.overhead_s", overhead.Seconds())

	// The coordinator's store path for this suite: one write, cached
	// reads, and a read from a fresh handle.
	var s storeLayers
	sp = tr.begin(root, "store")
	dir, err := os.MkdirTemp(e.scratch, "store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, store.DefaultCacheEntries)
	if err != nil {
		return nil, err
	}
	r.count(s.putResult(st, merged))
	for i := 0; i < cachedN; i++ {
		_, err := s.get(st, pin.Digest)
		r.count(err)
	}
	if cold, err := store.Open(dir, 0); err == nil {
		_, err = s.get(cold, pin.Digest)
		r.count(err)
	}
	s.fold(tr, sp)
	tr.end(sp)
	setStoreLayers(r, &s)
	setServerLayers(r, dm, cachedP50ms)
	return finish(e, tr, root, r)
}
