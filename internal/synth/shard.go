package synth

import (
	"sync"

	"memsynth/internal/litmus"
)

// The sharded maps below replace the engine's former single global mutex:
// workers hash each canonical key to a shard and lock only that shard, so
// dedupe contention scales with the shard count instead of serializing
// every worker.

// fnv32a hashes a string (FNV-1a).
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// shardCount picks a power-of-two shard count for the given worker count.
func shardCount(workers int) int {
	n := 16
	for n < 4*workers && n < 256 {
		n *= 2
	}
	return n
}

// shardedSet is an N-way sharded string set supporting concurrent
// first-claim semantics.
type shardedSet struct {
	shards []setShard
	mask   uint32
}

type setShard struct {
	mu sync.Mutex
	m  map[string]bool
}

func newShardedSet(workers int) *shardedSet {
	n := shardCount(workers)
	s := &shardedSet{shards: make([]setShard, n), mask: uint32(n - 1)}
	for i := range s.shards {
		s.shards[i].m = make(map[string]bool)
	}
	return s
}

// Claim inserts key and reports whether it was absent (i.e. the caller is
// the first claimant).
func (s *shardedSet) Claim(key string) bool {
	sh := &s.shards[fnv32a(key)&s.mask]
	sh.mu.Lock()
	claimed := !sh.m[key]
	sh.m[key] = true
	sh.mu.Unlock()
	return claimed
}

// progClaim is one canonical program class candidate: the concrete
// representative and its generation sequence number.
type progClaim struct {
	seq  int64
	test *litmus.Test
}

// claimMap is an N-way sharded map from canonical program key to the
// lowest-sequence-number representative seen so far. Keeping the
// generation-order-first program of every symmetry class makes the suite
// output independent of worker scheduling (byte-identical for any worker
// count).
type claimMap struct {
	shards []claimShard
	mask   uint32
}

type claimShard struct {
	mu sync.Mutex
	m  map[string]progClaim
}

func newClaimMap(workers int) *claimMap {
	n := shardCount(workers)
	c := &claimMap{shards: make([]claimShard, n), mask: uint32(n - 1)}
	for i := range c.shards {
		c.shards[i].m = make(map[string]progClaim)
	}
	return c
}

// Offer records (seq, test) as a candidate for key, keeping the lowest
// sequence number, and reports whether the key was new.
func (c *claimMap) Offer(key string, seq int64, t *litmus.Test) bool {
	sh := &c.shards[fnv32a(key)&c.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	prev, ok := sh.m[key]
	if !ok {
		sh.m[key] = progClaim{seq: seq, test: t}
		return true
	}
	if seq < prev.seq {
		sh.m[key] = progClaim{seq: seq, test: t}
	}
	return false
}

// Winners returns every class representative, in unspecified order: the
// only caller immediately re-sorts by generation seq, which is what makes
// suites independent of both map iteration and worker interleaving.
func (c *claimMap) Winners() []progClaim {
	var out []progClaim
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		//memvet:ordered the caller re-sorts by generation seq
		for _, pc := range sh.m {
			out = append(out, pc)
		}
		sh.mu.Unlock()
	}
	return out
}
