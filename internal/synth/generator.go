package synth

import (
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
)

// generator exhaustively enumerates litmus-test programs of a given size
// over a model's vocabulary: thread shapes, instruction assignments,
// canonical address assignments (restricted-growth strings), dependency
// edges, RMW pairing, and — for scoped models — thread-to-group
// assignments.
//
// The emit callback returns false to abort enumeration (cancellation);
// every recursive stage propagates the abort outward immediately.
//
// A generator bound to a shard of stride > 1 emits only the programs the
// shard owns: those whose classHash is congruent to the shard's index
// modulo its stride. The skipped programs are never built.
type generator struct {
	vocab         memmodel.Vocab
	opts          Options
	pruneIsolated bool
	shard         ShardSpec
	local         []int // classHash's per-thread address names
}

// newGenerator is the one place the pruning rule lives: isolated
// addresses are pruned unless the options keep them, and only for
// models without syntactic dependencies, where the pruning is sound.
func newGenerator(vocab memmodel.Vocab, opts Options, shard ShardSpec) *generator {
	return &generator{
		vocab:         vocab,
		opts:          opts,
		pruneIsolated: !opts.KeepIsolatedAddrs && len(vocab.DepTypes) == 0,
		shard:         shard,
	}
}

// slot is one instruction position while a program skeleton is being built.
type slot struct {
	op       litmus.Op
	thread   int
	index    int
	addrSlot int // index into the address-slot list; -1 for fences
	rmwRead  bool
}

// run enumerates all programs with n instructions; it returns false if
// emit aborted the enumeration.
func (g *generator) run(n int, emit func(*litmus.Test) bool) bool {
	for _, sizes := range partitions(n, g.opts.MaxThreads) {
		if !g.fillThreads(sizes, emit) {
			return false
		}
	}
	return true
}

// partitions returns all non-increasing positive compositions of n into at
// most maxParts parts.
func partitions(n, maxParts int) [][]int {
	var out [][]int
	var cur []int
	var rec func(rem, maxPart, parts int)
	rec = func(rem, maxPart, parts int) {
		if rem == 0 {
			out = append(out, append([]int(nil), cur...))
			return
		}
		if parts == maxParts {
			return
		}
		limit := maxPart
		if rem < limit {
			limit = rem
		}
		for p := limit; p >= 1; p-- {
			cur = append(cur, p)
			rec(rem-p, p, parts+1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(n, n, 0)
	return out
}

// fillThreads enumerates instruction assignments for the given thread
// sizes, then hands each skeleton to the address/dep/group stages.
func (g *generator) fillThreads(sizes []int, emit func(*litmus.Test) bool) bool {
	var slots []slot
	numAddrSlots := 0
	rmwPairs := 0

	var fill func(th, idx int) bool
	fill = func(th, idx int) bool {
		if th == len(sizes) {
			return g.assignAddrs(sizes, slots, numAddrSlots, emit)
		}
		if idx == sizes[th] {
			return fill(th+1, 0)
		}
		// Single instructions.
		for _, op := range g.vocab.Ops {
			if op.IsFence() && !g.opts.KeepTrivialFences &&
				(idx == 0 || idx == sizes[th]-1) {
				continue // leading/trailing fence orders nothing
			}
			s := slot{op: op, thread: th, index: idx, addrSlot: -1}
			if !op.IsFence() {
				s.addrSlot = numAddrSlots
				numAddrSlots++
			}
			slots = append(slots, s)
			ok := fill(th, idx+1)
			slots = slots[:len(slots)-1]
			if !op.IsFence() {
				numAddrSlots--
			}
			if !ok {
				return false
			}
		}
		// RMW pairs (occupy two adjacent slots, one shared address slot).
		if idx+2 <= sizes[th] && rmwPairs < g.opts.MaxRMWs {
			for _, pair := range g.vocab.RMWOps {
				r := slot{op: pair[0], thread: th, index: idx, addrSlot: numAddrSlots, rmwRead: true}
				w := slot{op: pair[1], thread: th, index: idx + 1, addrSlot: numAddrSlots}
				numAddrSlots++
				rmwPairs++
				slots = append(slots, r, w)
				ok := fill(th, idx+2)
				slots = slots[:len(slots)-2]
				rmwPairs--
				numAddrSlots--
				if !ok {
					return false
				}
			}
		}
		return true
	}
	return fill(0, 0)
}

// assignAddrs enumerates canonical address assignments (restricted-growth
// strings) over the address slots.
func (g *generator) assignAddrs(sizes []int, slots []slot, numAddrSlots int, emit func(*litmus.Test) bool) bool {
	addrs := make([]int, numAddrSlots)
	var rec func(i, maxUsed int) bool
	rec = func(i, maxUsed int) bool {
		if i == numAddrSlots {
			if g.pruneIsolated && !g.addrsUseful(slots, addrs, maxUsed+1) {
				return true
			}
			return g.assignDeps(sizes, slots, addrs, emit)
		}
		limit := maxUsed + 1
		if limit > g.opts.MaxAddrs-1 {
			limit = g.opts.MaxAddrs - 1
		}
		for a := 0; a <= limit; a++ {
			addrs[i] = a
			nm := maxUsed
			if a > nm {
				nm = a
			}
			if !rec(i+1, nm) {
				return false
			}
		}
		return true
	}
	if numAddrSlots == 0 {
		return g.assignDeps(sizes, slots, addrs, emit)
	}
	return rec(0, -1)
}

// addrsUseful checks, for dependency-free models, that every address is
// accessed at least twice and written at least once (an access with neither
// a coherence nor a reads-from partner cannot be load-bearing, so the test
// cannot be minimal).
func (g *generator) addrsUseful(slots []slot, addrs []int, numAddrs int) bool {
	accesses := make([]int, numAddrs)
	writes := make([]int, numAddrs)
	for _, s := range slots {
		if s.addrSlot < 0 {
			continue
		}
		a := addrs[s.addrSlot]
		accesses[a]++
		if s.op.Kind() == litmus.KWrite {
			writes[a]++
		}
	}
	for a := 0; a < numAddrs; a++ {
		if accesses[a] < 2 || writes[a] < 1 {
			return false
		}
	}
	return true
}

// depCandidate is a possible explicit dependency edge.
type depCandidate struct {
	fromSlot, toSlot int
	typ              litmus.DepType
}

// assignDeps enumerates dependency-edge subsets of size <= MaxDeps.
func (g *generator) assignDeps(sizes []int, slots []slot, addrs []int, emit func(*litmus.Test) bool) bool {
	var cands []depCandidate
	if len(g.vocab.DepTypes) > 0 {
		for i, from := range slots {
			if from.op.Kind() != litmus.KRead {
				continue
			}
			for j, to := range slots {
				if to.thread != from.thread || to.index <= from.index {
					continue
				}
				if from.rmwRead && to.index == from.index+1 {
					continue // implicit pair dependency already present
				}
				for _, dt := range g.vocab.DepTypes {
					if !depTypeAllowed(dt, to.op) {
						continue
					}
					cands = append(cands, depCandidate{fromSlot: i, toSlot: j, typ: dt})
				}
			}
		}
	}

	var chosen []depCandidate
	var rec func(next int) bool
	rec = func(next int) bool {
		if !g.assignGroups(sizes, slots, addrs, chosen, emit) {
			return false
		}
		if len(chosen) == g.opts.MaxDeps {
			return true
		}
		for i := next; i < len(cands); i++ {
			// At most one dependency per (from, to) pair.
			dup := false
			for _, c := range chosen {
				if c.fromSlot == cands[i].fromSlot && c.toSlot == cands[i].toSlot {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			chosen = append(chosen, cands[i])
			ok := rec(i + 1)
			chosen = chosen[:len(chosen)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	return rec(0)
}

// depTypeAllowed reports whether a dependency of type dt may target op:
// address dependencies target memory accesses, data dependencies feed store
// values, control dependencies guard stores and isync-style fences.
func depTypeAllowed(dt litmus.DepType, to litmus.Op) bool {
	switch dt {
	case litmus.DepAddr:
		return !to.IsFence()
	case litmus.DepData:
		return to.Kind() == litmus.KWrite
	case litmus.DepCtrl:
		return to.Kind() == litmus.KWrite || to.FenceKind() == litmus.FISync
	}
	return false
}

// assignGroups enumerates thread-to-group assignments (restricted growth)
// for scoped models, then builds and emits the test. Groups do not enter
// the class hash, so a skeleton the shard does not own is dropped here,
// with every group assignment of it.
func (g *generator) assignGroups(sizes []int, slots []slot, addrs []int, deps []depCandidate, emit func(*litmus.Test) bool) bool {
	if g.shard.Stride > 1 && g.classHash(slots, addrs, deps)%uint64(g.shard.Stride) != uint64(g.shard.Index) {
		return true
	}
	if len(g.vocab.Scopes) == 0 {
		return g.build(slots, addrs, deps, nil, emit)
	}
	groups := make([]int, len(sizes))
	var rec func(th, maxUsed int) bool
	rec = func(th, maxUsed int) bool {
		if th == len(sizes) {
			return g.build(slots, addrs, deps, groups, emit)
		}
		for grp := 0; grp <= maxUsed+1; grp++ {
			groups[th] = grp
			nm := maxUsed
			if grp > nm {
				nm = grp
			}
			if !rec(th+1, nm) {
				return false
			}
		}
		return true
	}
	return rec(0, -1)
}

// build materializes the skeleton into a litmus.Test and emits it. The
// slots are in thread and program order, so slot i is event i, and the
// test is filled in directly: one Test, an Events slice of exact length,
// and Deps, RMW and Groups only when the program has them, each in the
// order litmus.New would produce from the same skeleton
// (TestBuildMatchesNew).
func (g *generator) build(slots []slot, addrs []int, deps []depCandidate, groups []int, emit func(*litmus.Test) bool) bool {
	t := &litmus.Test{Name: "synth", Events: make([]litmus.Event, len(slots))}
	rmws := 0
	for i, s := range slots {
		addr := -1
		if s.addrSlot >= 0 {
			addr = addrs[s.addrSlot]
		}
		t.Events[i] = litmus.Event{
			ID:     i,
			Thread: s.thread,
			Index:  s.index,
			Kind:   s.op.Kind(),
			Order:  s.op.Order(),
			Fence:  s.op.FenceKind(),
			Scope:  s.op.Scope(),
			Addr:   addr,
		}
		if s.rmwRead {
			rmws++
		}
	}
	if len(deps) > 0 {
		t.Deps = make([]litmus.Dep, len(deps))
		for i, d := range deps {
			t.Deps[i] = litmus.Dep{From: d.fromSlot, To: d.toSlot, Type: d.typ}
		}
	}
	if rmws > 0 {
		t.RMW = make([][2]int, 0, rmws)
		for i, s := range slots {
			if s.rmwRead {
				t.RMW = append(t.RMW, [2]int{i, i + 1})
			}
		}
	}
	if groups != nil {
		t.Groups = append([]int(nil), groups...)
	}
	return emit(t)
}

// classHash is an invariant of the program's symmetry class
// (canon.ProgramKey): a multiset hash over its threads. A thread's hash
// covers its op sequence (kind, order, fence kind, scope and the RMW-read
// mark), its addresses renamed in first-use order within the thread, and
// its own dependency edges by position. Nothing canon renames enters it —
// no thread index, global address number or group — so every thread
// permutation and address or group renaming of a program hashes alike.
// The mixing is fixed integer arithmetic, so every host agrees on it.
func (g *generator) classHash(slots []slot, addrs []int, deps []depCandidate) uint64 {
	var sum uint64
	for lo := 0; lo < len(slots); {
		th := slots[lo].thread
		g.local = g.local[:0]
		var h uint64
		hi := lo
		for ; hi < len(slots) && slots[hi].thread == th; hi++ {
			s := slots[hi]
			name := 0 // fences
			if s.addrSlot >= 0 {
				a := addrs[s.addrSlot]
				for name < len(g.local) && g.local[name] != a {
					name++
				}
				if name == len(g.local) {
					g.local = append(g.local, a)
				}
				name++
			}
			w := uint64(s.op.Kind()) | uint64(s.op.Order())<<8 | uint64(s.op.FenceKind())<<16 |
				uint64(s.op.Scope())<<24 | uint64(name)<<32
			if s.rmwRead {
				w |= 1 << 48
			}
			h = splitmix64(h ^ w)
		}
		for _, d := range deps {
			if slots[d.fromSlot].thread == th {
				h += splitmix64(uint64(slots[d.fromSlot].index) | uint64(slots[d.toSlot].index)<<16 |
					uint64(d.typ)<<32)
			}
		}
		sum += splitmix64(h)
		lo = hi
	}
	// Equal threads add equal terms, so the sum alone would put every
	// program of two equal threads in an even shard.
	return splitmix64(sum)
}

// splitmix64 is the output function of Steele, Lea and Flood's SplitMix64
// generator: a fixed bijective mix of 64-bit words.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
