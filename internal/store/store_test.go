package store

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/synth"
)

// synthesizeSC runs a small deterministic synthesis used as test fixture.
func synthesizeSC(tb testing.TB, maxEvents int) *synth.Result {
	tb.Helper()
	m, err := memmodel.ByName("sc")
	if err != nil {
		tb.Fatal(err)
	}
	return synth.Synthesize(m, synth.Options{MaxEvents: maxEvents})
}

func TestDigestNormalization(t *testing.T) {
	base := synth.Options{MaxEvents: 4}
	d1 := Digest("sc", "", base)
	// Engine tuning must not change the address.
	d2 := Digest("sc", "", synth.Options{MaxEvents: 4, Workers: 7, ProgressInterval: 123})
	if d1 != d2 {
		t.Errorf("digest depends on engine tuning: %s vs %s", d1, d2)
	}
	// Explicit defaults hash like omitted defaults.
	d3 := Digest("sc", "", synth.Options{MaxEvents: 4, MinEvents: 2, MaxThreads: 4, MaxAddrs: 3, MaxDeps: 2, MaxRMWs: 1})
	if d1 != d3 {
		t.Errorf("digest distinguishes explicit defaults: %s vs %s", d1, d3)
	}
	// Semantic knobs must change it.
	for name, other := range map[string]string{
		"model":  Digest("tso", "", base),
		"bound":  Digest("sc", "", synth.Options{MaxEvents: 5}),
		"addrs":  Digest("sc", "", synth.Options{MaxEvents: 4, MaxAddrs: 2}),
		"fences": Digest("sc", "", synth.Options{MaxEvents: 4, KeepTrivialFences: true}),
	} {
		if other == d1 {
			t.Errorf("digest ignores %s", name)
		}
	}
	if len(d1) != 64 {
		t.Errorf("digest length = %d, want 64 hex chars", len(d1))
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	res := synthesizeSC(t, 4)
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	put, err := s.Put(res)
	if err != nil {
		t.Fatal(err)
	}
	digest := Digest(res.Model, res.ModelDigest, res.Options)
	if put.Manifest.Digest != digest {
		t.Fatalf("stored digest %s, want %s", put.Manifest.Digest, digest)
	}

	got, err := s.Get(digest)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := got.Result()
	if err != nil {
		t.Fatal(err)
	}

	if len(rt.Union.Entries) != len(res.Union.Entries) {
		t.Fatalf("union size %d, want %d", len(rt.Union.Entries), len(res.Union.Entries))
	}
	for i, e := range res.Union.Entries {
		r := rt.Union.Entries[i]
		if r.Key != e.Key || r.Size != e.Size {
			t.Fatalf("entry %d: (key,size) = (%s,%d), want (%s,%d)", i, r.Key, r.Size, e.Key, e.Size)
		}
		if litmus.Format(r.Test) != litmus.Format(e.Test) {
			t.Fatalf("entry %d test round-trip mismatch:\n%s\nvs\n%s",
				i, litmus.Format(r.Test), litmus.Format(e.Test))
		}
		if r.Exec.OutcomeString() != e.Exec.OutcomeString() {
			t.Fatalf("entry %d witness mismatch: %q vs %q",
				i, r.Exec.OutcomeString(), e.Exec.OutcomeString())
		}
	}
	if len(rt.PerAxiom) != len(res.PerAxiom) {
		t.Fatalf("per-axiom count %d, want %d", len(rt.PerAxiom), len(res.PerAxiom))
	}
	for name, suite := range res.PerAxiom {
		if got := rt.PerAxiom[name]; got == nil || len(got.Entries) != len(suite.Entries) {
			t.Errorf("axiom %s not round-tripped", name)
		}
	}
	if rt.Stats != res.Stats {
		t.Errorf("stats not round-tripped: %+v vs %+v", rt.Stats, res.Stats)
	}
	// A fresh handle loads the manifest from disk: the whole record
	// survives JSON, and a cached result's Entries is its union's size.
	fresh, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := fresh.Get(digest)
	if err != nil {
		t.Fatal(err)
	}
	if rt, err = disk.Result(); err != nil {
		t.Fatal(err)
	}
	if rt.Stats != res.Stats {
		t.Errorf("stats not round-tripped through disk: %+v vs %+v", rt.Stats, res.Stats)
	}
	if rt.Stats.Entries != len(rt.Union.Entries) {
		t.Errorf("rehydrated Stats.Entries = %d, union has %d", rt.Stats.Entries, len(rt.Union.Entries))
	}

	// The stored text itself is a fixed point: parse + reformat is
	// byte-identical, so repeated store round-trips cannot drift.
	text := got.Texts[UnionSuite]
	specs, err := litmus.ParseSuite(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if reformatted := litmus.FormatSuite(specs); reformatted != text {
		t.Errorf("stored union text is not a formatting fixed point:\n%q\nvs\n%q", text, reformatted)
	}
}

// TestDecodeEntries pins the one entry codec: every builtin's union
// survives EncodeEntries → DecodeEntries with its tests, keys and
// witnesses (each key recomputes from the reparsed test), and an entry
// whose witness is malformed, whose size is not its test's or whose key
// is not its witness's is rejected.
func TestDecodeEntries(t *testing.T) {
	for _, m := range memmodel.All() {
		res := synth.Synthesize(m, synth.Options{MaxEvents: 3})
		text, manifests := EncodeEntries(res.Union.Entries)
		back, err := DecodeEntries(text, manifests)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		for i, e := range res.Union.Entries {
			if b := back[i]; b.Key != e.Key || b.Size != e.Size || b.Exec.OutcomeString() != e.Exec.OutcomeString() {
				t.Errorf("%s entry %d: (%s, %d, %s) decoded as (%s, %d, %s)", m.Name(), i,
					e.Key, e.Size, e.Exec.OutcomeString(), b.Key, b.Size, b.Exec.OutcomeString())
			}
		}
	}

	res := synthesizeSC(t, 3)
	text, manifests := EncodeEntries(res.Union.Entries)
	for name, mutate := range map[string]func(em *EntryManifest){
		"empty rf": func(em *EntryManifest) { em.RF = []int{} },
		"no co":    func(em *EntryManifest) { em.CO = nil },
		"size":     func(em *EntryManifest) { em.Size++ },
		"key":      func(em *EntryManifest) { em.Key += "x" },
	} {
		bad := make([]EntryManifest, len(manifests))
		copy(bad, manifests)
		mutate(&bad[len(bad)-1])
		if _, err := DecodeEntries(text, bad); err == nil {
			t.Errorf("%s: corrupt entry decoded", name)
		}
	}
	if _, err := DecodeEntries(text, manifests[1:]); err == nil {
		t.Error("more tests than entry manifests decoded")
	}
}

// manifestFixture is a tso@2 manifest (CountForbidden on) in the format
// written before the stats record carried "entries" and "interrupted".
const manifestFixture = `{"format_version":1,"digest":"5933a778e0ae80c356b31fd0ddb4b7477a64c67e9e73fed035291ba64b48cc34","engine_version":"1","model":"tso","model_source":"builtin","backend":"enum","options":{"min_events":2,"max_events":2,"max_threads":4,"max_addrs":3,"max_deps":2,"max_rmws":1,"count_forbidden":true},"created_at":"2026-10-17T08:04:52Z","stats":{"programs_raw":7,"programs":6,"executions":11,"executions_fast":1,"forbidden_outcomes":3,"elapsed_ns":237502,"generation_ns":59542,"dedupe_ns":24015,"execution_ns":51011,"minimality_ns":42660},"suites":{"causality":{"file":"axiom-causality.litmus","tests":1,"entries":[{"key":"T0,g0:[k1o0f0s0a0][k1o0f0s0a0];DMRC|1,0,","size":2,"rf":[-1,-1],"co":[[1,0]]}]},"rmw_atomicity":{"file":"axiom-rmw_atomicity.litmus","tests":0,"entries":null},"sc_per_loc":{"file":"axiom-sc_per_loc.litmus","tests":3,"entries":[{"key":"T0,g0:[k0o0f0s0a0][k1o0f0s0a0];DMR(1)C|1,","size":2,"rf":[1,-1],"co":[[1]]},{"key":"T0,g0:[k1o0f0s0a0][k0o0f0s0a0];DMR(i)C|0,","size":2,"rf":[-1,-1],"co":[[0]]},{"key":"T0,g0:[k1o0f0s0a0][k1o0f0s0a0];DMRC|1,0,","size":2,"rf":[-1,-1],"co":[[1,0]]}]},"union":{"file":"union.litmus","tests":3,"entries":[{"key":"T0,g0:[k0o0f0s0a0][k1o0f0s0a0];DMR(1)C|1,","size":2,"rf":[1,-1],"co":[[1]]},{"key":"T0,g0:[k1o0f0s0a0][k0o0f0s0a0];DMR(i)C|0,","size":2,"rf":[-1,-1],"co":[[0]]},{"key":"T0,g0:[k1o0f0s0a0][k1o0f0s0a0];DMRC|1,0,","size":2,"rf":[-1,-1],"co":[[1,0]]}]}}}`

// TestManifestFixtureLoads pins that manifests already on disk stay
// readable: the fixture loads with its counts and stage times intact,
// every stats key it carries re-encodes under the same name and value,
// and its rehydrated result counts its union's entries.
func TestManifestFixtureLoads(t *testing.T) {
	const union = "name: synth\nT0: Ld x; St x\nforbid: 0:0=1 [x]=1\n\nname: synth\nT0: St x; Ld x\nforbid: 0:1=0 [x]=1\n\nname: synth\nT0: St x; St x\nforbid: [x]=2\n"
	var m Manifest
	if err := json.Unmarshal([]byte(manifestFixture), &m); err != nil {
		t.Fatal(err)
	}
	want := synth.Stats{
		ProgramsRaw:       7,
		Programs:          6,
		Executions:        11,
		ExecutionsFast:    1,
		ForbiddenOutcomes: 3,
		Elapsed:           237502,
		Stages:            synth.Stages{Generation: 59542, Dedupe: 24015, Execution: 51011, Minimality: 42660},
	}
	if m.Stats != want {
		t.Errorf("fixture stats = %+v, want %+v", m.Stats, want)
	}

	var old struct {
		Stats map[string]any `json:"stats"`
	}
	if err := json.Unmarshal([]byte(manifestFixture), &old); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(m.Stats)
	if err != nil {
		t.Fatal(err)
	}
	var now map[string]any
	if err := json.Unmarshal(raw, &now); err != nil {
		t.Fatal(err)
	}
	for k, v := range old.Stats {
		if now[k] != v {
			t.Errorf("stats key %q re-encodes as %v, was %v", k, now[k], v)
		}
	}

	ss := &StoredSuite{Manifest: &m, Texts: map[string]string{
		UnionSuite:      union,
		"sc_per_loc":    union,
		"causality":     "name: synth\nT0: St x; St x\nforbid: [x]=2\n",
		"rmw_atomicity": "",
	}}
	res, err := ss.Result()
	if err != nil {
		t.Fatal(err)
	}
	want.Entries = 3
	if res.Stats != want || len(res.Union.Entries) != 3 {
		t.Errorf("rehydrated stats = %+v with %d union entries, want %+v", res.Stats, len(res.Union.Entries), want)
	}
}

func TestGetSurvivesReopen(t *testing.T) {
	res := synthesizeSC(t, 4)
	dir := t.TempDir()
	s1, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	put, err := s1.Put(res)
	if err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(put.Manifest.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if got.Texts[UnionSuite] != put.Texts[UnionSuite] {
		t.Error("union text changed across reopen")
	}
	if _, err := got.Result(); err != nil {
		t.Fatal(err)
	}
}

func TestGetNotFound(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(strings.Repeat("0", 64)); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get on empty store: %v, want ErrNotFound", err)
	}
}

func TestPutRejectsPartialResult(t *testing.T) {
	res := synthesizeSC(t, 3)
	res.Stats.Interrupted = true
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(res); !errors.Is(err, ErrPartialResult) {
		t.Errorf("Put(interrupted) = %v, want ErrPartialResult", err)
	}
}

func TestEvict(t *testing.T) {
	res := synthesizeSC(t, 3)
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	put, err := s.Put(res)
	if err != nil {
		t.Fatal(err)
	}
	digest := put.Manifest.Digest
	if err := s.Evict(digest); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(digest); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after Evict: %v, want ErrNotFound", err)
	}
	if err := s.Evict(digest); !errors.Is(err, ErrNotFound) {
		t.Errorf("double Evict: %v, want ErrNotFound", err)
	}
}

func TestListAndLRUBound(t *testing.T) {
	sc3 := synthesizeSC(t, 3)
	sc4 := synthesizeSC(t, 4)
	s, err := Open(t.TempDir(), 1) // cache holds one entry
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(sc3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(sc4); err != nil {
		t.Fatal(err)
	}
	if n := s.CacheLen(); n != 1 {
		t.Errorf("cache len = %d, want 1 (bounded)", n)
	}
	// The evicted-from-cache entry is still served from disk.
	if _, err := s.Get(Digest("sc", "", synth.Options{MaxEvents: 3})); err != nil {
		t.Fatal(err)
	}
	manifests, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(manifests) != 2 {
		t.Fatalf("List returned %d entries, want 2", len(manifests))
	}
	for _, m := range manifests {
		if m.Model != "sc" || m.EngineVersion != synth.EngineVersion {
			t.Errorf("bad listed manifest: %+v", m)
		}
	}
}

func TestPutFirstWinsOnRaceLeftovers(t *testing.T) {
	// Simulate a lost rename race: the entry dir already exists.
	res := synthesizeSC(t, 3)
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Put(res)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Put(res)
	if err != nil {
		t.Fatal(err)
	}
	if second.Manifest.Digest != first.Manifest.Digest {
		t.Errorf("second Put digest %s, want %s", second.Manifest.Digest, first.Manifest.Digest)
	}
	// No staging garbage left behind.
	leftovers, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Errorf("tmp dir has %d leftovers", len(leftovers))
	}
}

func BenchmarkStoreGet(b *testing.B) {
	res := synthesizeSC(b, 4)
	dir := b.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	put, err := s.Put(res)
	if err != nil {
		b.Fatal(err)
	}
	digest := put.Manifest.Digest

	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Get(digest); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cold, err := Open(dir, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := cold.Get(digest); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// memPeer is an in-memory Peer backed by another Store.
type memPeer struct {
	src   *Store
	calls int
}

func (p *memPeer) FetchSuite(_ context.Context, digest string) (*StoredSuite, error) {
	p.calls++
	return p.src.Get(digest)
}

// TestGetThroughPeer: a local miss is served from the peer, persisted
// locally byte-identically, and subsequent reads stay local.
func TestGetThroughPeer(t *testing.T) {
	res := synthesizeSC(t, 4)
	remote, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := remote.Put(res); err != nil {
		t.Fatal(err)
	}
	digest := Digest(res.Model, res.ModelDigest, res.Options)

	local, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	peer := &memPeer{src: remote}

	ss, fromPeer, err := local.GetThrough(context.Background(), digest, peer)
	if err != nil {
		t.Fatal(err)
	}
	if !fromPeer || peer.calls != 1 {
		t.Errorf("first read: fromPeer=%t calls=%d, want true/1", fromPeer, peer.calls)
	}
	want, err := remote.Get(digest)
	if err != nil {
		t.Fatal(err)
	}
	for name, text := range want.Texts {
		if got := ss.Texts[name]; got != text {
			t.Errorf("peer-fetched suite %q differs from origin bytes", name)
		}
	}

	// Now persisted locally: the peer must not be consulted again, even
	// with a cold in-memory cache.
	local2, err := Open(local.Dir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, fromPeer, err = local2.GetThrough(context.Background(), digest, peer)
	if err != nil {
		t.Fatal(err)
	}
	if fromPeer || peer.calls != 1 {
		t.Errorf("second read: fromPeer=%t calls=%d, want false/1", fromPeer, peer.calls)
	}

	// A digest neither side has propagates ErrNotFound.
	if _, _, err := local.GetThrough(context.Background(), strings.Repeat("0", 64), peer); !errors.Is(err, ErrNotFound) {
		t.Errorf("double miss: %v, want ErrNotFound", err)
	}
	// A nil peer degrades to plain Get.
	if _, _, err := local.GetThrough(context.Background(), strings.Repeat("1", 64), nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("nil peer: %v, want ErrNotFound", err)
	}
}

// badPeer returns a suite under the wrong digest.
type badPeer struct{ ss *StoredSuite }

func (p *badPeer) FetchSuite(context.Context, string) (*StoredSuite, error) { return p.ss, nil }

func TestGetThroughRejectsWrongDigest(t *testing.T) {
	res := synthesizeSC(t, 3)
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = s.GetThrough(context.Background(), strings.Repeat("2", 64), &badPeer{ss: ss})
	if err == nil || !strings.Contains(err.Error(), "wrong digest") {
		t.Errorf("wrong-digest peer response accepted: %v", err)
	}
}

// TestCountersAndDiskBytes: the read-cache tier counters and the on-disk
// gauge move as expected.
func TestCountersAndDiskBytes(t *testing.T) {
	res := synthesizeSC(t, 3)
	s, err := Open(t.TempDir(), 1) // capacity 1 forces LRU eviction
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(res); err != nil {
		t.Fatal(err)
	}
	digest := Digest(res.Model, res.ModelDigest, res.Options)

	if _, err := s.Get(digest); err != nil { // warm (Put cached it): hit
		t.Fatal(err)
	}
	c := s.Counters()
	if c.CacheHits != 1 || c.CacheMisses != 0 {
		t.Errorf("after warm get: %+v, want 1 hit / 0 misses", c)
	}

	// A second entry at capacity 1 evicts the first; re-reading it is a
	// cache miss served from disk.
	m, err := memmodel.ByName("tso")
	if err != nil {
		t.Fatal(err)
	}
	res2 := synth.Synthesize(m, synth.Options{MaxEvents: 3})
	if _, err := s.Put(res2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(digest); err != nil {
		t.Fatal(err)
	}
	c = s.Counters()
	if c.CacheMisses != 1 {
		t.Errorf("CacheMisses = %d, want 1", c.CacheMisses)
	}
	if c.CacheEvictions < 1 {
		t.Errorf("CacheEvictions = %d, want >= 1", c.CacheEvictions)
	}

	bytes, err := s.DiskBytes()
	if err != nil {
		t.Fatal(err)
	}
	if bytes <= 0 {
		t.Errorf("DiskBytes = %d, want > 0", bytes)
	}
	if err := s.Evict(digest); err != nil {
		t.Fatal(err)
	}
	after, err := s.DiskBytes()
	if err != nil {
		t.Fatal(err)
	}
	if after >= bytes {
		t.Errorf("DiskBytes after evict = %d, want < %d", after, bytes)
	}
}
