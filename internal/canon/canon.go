// Package canon canonicalizes litmus tests and executions for symmetry
// reduction (paper §5.1). Two tests that differ only by a permutation of
// threads, a renaming of addresses, or a renaming of scope groups receive
// the same canonical key, so only one representative of each symmetry class
// is emitted by the synthesizer.
//
// The approach extends Mador-Haim et al. (2010) as the paper does — the
// encoding covers memory orders, fence kinds, scopes, dependencies, and RMW
// pairing — and, unlike the paper's hash-based canonicalizer, the key is
// the least encoding over all thread permutations, which also removes the
// WWC duplicate the paper reports as a known limitation (§6.1, Fig. 14).
//
// The least encoding is found by branch-and-bound: the encoding grows one
// thread segment at a time, and a segment depends only on the threads
// placed before it (addresses and groups are renamed in first-use order),
// so a partial permutation whose prefix already exceeds the best key found
// so far cannot lead to a smaller key and is dropped. The keys are
// identical to those of the full search over every permutation.
package canon

import (
	"bytes"
	"strconv"
	"sync"

	"memsynth/internal/exec"
	"memsynth/internal/litmus"
)

// Key returns the canonical key of the (test, execution) pair: the
// lexicographically least encoding over all thread permutations, with
// addresses and groups renamed in first-use order.
func Key(x *exec.Execution) string {
	return leastEncoding(x.Test, x)
}

// ProgramKey returns the canonical key of the test alone (ignoring any
// execution).
func ProgramKey(t *litmus.Test) string {
	return leastEncoding(t, nil)
}

// An encoding renders a permuted test as
//
//	T<th>,g<group>:[k<kind>o<order>f<fence>s<scope>a<addr>]...;   per thread
//	D(<from>,<to>,<type>)...  M(<read>,<write>)...                deps, RMW pairs
//	R(<src>|i)...  C|<w>,...|...  S<f>,...                        execution only
//
// with threads in permuted order, event IDs renumbered along that order,
// and addresses and groups renamed in first-use order.

// encoder holds one key computation's search state. The per-thread event
// index and the static part of every event's encoding are built once; the
// search then appends to and truncates a single buffer.
type encoder struct {
	t *litmus.Test
	x *exec.Execution
	n int // threads

	// Events of thread th are evs[off[th]:off[th+1]], in program order.
	evs []int
	off []int
	// pre[preOff[id]:preOff[id+1]] is event id's encoding up to its
	// address ("[k0o0f0s0a").
	pre    []byte
	preOff []int

	// Addresses and groups are numbered densely once per call (evAddr,
	// thGroup; -1 for fences). addrNew/groupNew map a dense number to its
	// first-use name under the current partial permutation (-1 while
	// unused); addrOld/groupOld list the dense numbers in naming order,
	// so truncating them undoes the renames of a backtracked thread.
	evAddr    []int
	addrVal   []int // dense address -> address
	addrNew   []int
	addrOld   []int
	thGroup   []int
	groupNew  []int
	groupOld  []int
	perm      []int // perm[new thread] = old thread
	newID     []int
	triples   [][3]int
	pairs     [][2]int
	buf, best []byte

	// The backing stores of the slices above, kept across calls: slab
	// holds every int slice but triples and pairs, raw holds pre, buf and
	// best.
	slab []int
	raw  []byte
}

// encoders pools encoders, so a warm key computation reuses the int slab,
// byte buffer and tail scratch of an earlier one and allocates only the
// key string it returns.
var encoders = sync.Pool{New: func() any { return new(encoder) }}

func leastEncoding(t *litmus.Test, x *exec.Execution) string {
	e := encoders.Get().(*encoder)
	key := e.key(t, x)
	encoders.Put(e)
	return key
}

// key returns the least encoding of (t, x). It drops its references to t
// and x before returning, so a pooled encoder keeps no test alive.
func (e *encoder) key(t *litmus.Test, x *exec.Execution) string {
	e.init(t, x)
	e.search(0, true)
	e.t, e.x = nil, nil
	return string(e.best)
}

// init points the encoder at (t, x), carving its per-call state out of
// the buffers an earlier call left behind and growing them only when t
// needs more.
func (e *encoder) init(t *litmus.Test, x *exec.Execution) {
	n, ne := t.NumThreads(), len(t.Events)
	e.t, e.x, e.n = t, x, n

	need := 7*(n+ne) + 2
	if cap(e.slab) < need {
		e.slab = make([]int, need)
	}
	slab := e.slab[:need]
	clear(slab)
	take := func(k int) []int {
		s := slab[:k:k]
		slab = slab[k:]
		return s
	}
	e.off, e.thGroup, e.perm = take(n+1), take(n), take(n)
	e.evs, e.preOff, e.evAddr, e.newID = take(ne), take(ne+1), take(ne), take(ne)

	// Counting sort of event IDs by thread, stable in ID order (which is
	// program order).
	for _, ev := range t.Events {
		e.off[ev.Thread+1]++
	}
	for th := 0; th < n; th++ {
		e.off[th+1] += e.off[th]
		e.perm[th] = th
	}
	fill := take(n)
	copy(fill, e.off[:n])
	for id, ev := range t.Events {
		e.evs[fill[ev.Thread]] = id
		fill[ev.Thread]++
	}

	// pre needs at most 18 bytes per event; a key of buf's capacity
	// covers typical tests, and longer ones grow by append.
	preCap := 18 * ne
	size := preCap + 4*ne + 8*n + 12*(len(t.Deps)+len(t.RMW)) + 8
	if x != nil {
		size += 4 * ne
	}
	if cap(e.raw) < preCap+2*size {
		e.raw = make([]byte, preCap+2*size)
	}
	raw := e.raw[:preCap+2*size]
	e.pre = raw[:0:preCap]
	e.buf = raw[preCap : preCap : preCap+size]
	e.best = raw[preCap+size : preCap+size : preCap+2*size]

	e.addrVal = take(ne)[:0]
	for id, ev := range t.Events {
		e.preOff[id] = len(e.pre)
		e.pre = append(e.pre, "[k"...)
		e.pre = strconv.AppendInt(e.pre, int64(ev.Kind), 10)
		e.pre = append(e.pre, 'o')
		e.pre = strconv.AppendInt(e.pre, int64(ev.Order), 10)
		e.pre = append(e.pre, 'f')
		e.pre = strconv.AppendInt(e.pre, int64(ev.Fence), 10)
		e.pre = append(e.pre, 's')
		e.pre = strconv.AppendInt(e.pre, int64(ev.Scope), 10)
		e.pre = append(e.pre, 'a')
		e.evAddr[id] = -1
		if ev.Addr >= 0 {
			e.evAddr[id] = denseIndex(&e.addrVal, ev.Addr)
		}
	}
	e.preOff[ne] = len(e.pre)
	e.addrNew, e.addrOld = take(len(e.addrVal)), take(ne)[:0]
	for i := range e.addrNew {
		e.addrNew[i] = -1
	}

	groupVal := take(n)[:0]
	for th := 0; th < n; th++ {
		e.thGroup[th] = denseIndex(&groupVal, t.GroupOf(th))
	}
	e.groupNew, e.groupOld = take(len(groupVal)), take(n)[:0]
	for i := range e.groupNew {
		e.groupNew[i] = -1
	}

	e.triples = resize(e.triples, len(t.Deps))
	e.pairs = resize(e.pairs, len(t.RMW))
}

// resize returns s with length k, reusing its backing array when it is
// large enough.
func resize[T any](s []T, k int) []T {
	if cap(s) < k {
		return make([]T, k)
	}
	return s[:k]
}

// denseIndex returns v's position in *vals, appending it when absent.
func denseIndex(vals *[]int, v int) int {
	for i, u := range *vals {
		if u == v {
			return i
		}
	}
	*vals = append(*vals, v)
	return len(*vals) - 1
}

// search places a thread at position k in every remaining way. less
// reports that the buffer (threads 0..k-1) is already below the best key,
// so nothing under it can be pruned; otherwise it equals the best key's
// prefix of the same length.
func (e *encoder) search(k int, less bool) {
	if k == e.n {
		e.leaf(less)
		return
	}
	for i := k; i < e.n; i++ {
		e.perm[k], e.perm[i] = e.perm[i], e.perm[k]
		mark, na, ng := len(e.buf), len(e.addrOld), len(e.groupOld)
		e.appendThread(k, e.perm[k])
		if less {
			e.search(k+1, true)
		} else if c := e.compareBest(mark); c <= 0 {
			e.search(k+1, c < 0)
		}
		// Any leaf under a prefix below the best key became the best
		// key, so the shared prefix now equals it.
		less = false
		e.buf = e.buf[:mark]
		for _, d := range e.addrOld[na:] {
			e.addrNew[d] = -1
		}
		e.addrOld = e.addrOld[:na]
		for _, d := range e.groupOld[ng:] {
			e.groupNew[d] = -1
		}
		e.groupOld = e.groupOld[:ng]
		e.perm[k], e.perm[i] = e.perm[i], e.perm[k]
	}
}

// compareBest compares the buffer from mark on with the best key's bytes
// at the same positions, given that the bytes before mark are equal. A
// buffer that runs past the end of the best key compares greater, as every
// completion of it does.
func (e *encoder) compareBest(mark int) int {
	if len(e.buf) > len(e.best) {
		if c := bytes.Compare(e.buf[mark:len(e.best)], e.best[mark:]); c != 0 {
			return c
		}
		return 1
	}
	return bytes.Compare(e.buf[mark:], e.best[mark:len(e.buf)])
}

// appendThread encodes old thread th as thread k of the permutation,
// naming its unseen group and addresses.
func (e *encoder) appendThread(k, th int) {
	g := e.thGroup[th]
	if e.groupNew[g] < 0 {
		e.groupNew[g] = len(e.groupOld)
		e.groupOld = append(e.groupOld, g)
	}
	e.buf = append(e.buf, 'T')
	e.buf = strconv.AppendInt(e.buf, int64(k), 10)
	e.buf = append(e.buf, ",g"...)
	e.buf = strconv.AppendInt(e.buf, int64(e.groupNew[g]), 10)
	e.buf = append(e.buf, ':')
	for _, id := range e.evs[e.off[th]:e.off[th+1]] {
		e.buf = append(e.buf, e.pre[e.preOff[id]:e.preOff[id+1]]...)
		a := e.evAddr[id]
		if a >= 0 {
			if e.addrNew[a] < 0 {
				e.addrNew[a] = len(e.addrOld)
				e.addrOld = append(e.addrOld, a)
			}
			a = e.addrNew[a]
		}
		e.buf = strconv.AppendInt(e.buf, int64(a), 10)
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, ';')
}

// leaf completes a full permutation's encoding with the parts that depend
// on the whole permutation and keeps it if it is the least so far.
func (e *encoder) leaf(less bool) {
	mark := len(e.buf)
	next := 0
	for _, th := range e.perm {
		for _, id := range e.evs[e.off[th]:e.off[th+1]] {
			e.newID[id] = next
			next++
		}
	}
	e.appendTail()
	if less || bytes.Compare(e.buf[mark:], e.best[mark:]) < 0 {
		e.best = append(e.best[:0], e.buf...)
	}
	e.buf = e.buf[:mark]
}

// appendTail encodes deps and RMW pairs in new-ID order and, for an
// execution, its rf, co and sc relations.
func (e *encoder) appendTail() {
	t, x := e.t, e.x
	e.buf = append(e.buf, 'D')
	for i, d := range t.Deps {
		e.triples[i] = [3]int{e.newID[d.From], e.newID[d.To], int(d.Type)}
	}
	sortTriples(e.triples)
	for _, d := range e.triples {
		e.buf = append(e.buf, '(')
		e.buf = strconv.AppendInt(e.buf, int64(d[0]), 10)
		e.buf = append(e.buf, ',')
		e.buf = strconv.AppendInt(e.buf, int64(d[1]), 10)
		e.buf = append(e.buf, ',')
		e.buf = strconv.AppendInt(e.buf, int64(d[2]), 10)
		e.buf = append(e.buf, ')')
	}
	e.buf = append(e.buf, 'M')
	for i, p := range t.RMW {
		e.pairs[i] = [2]int{e.newID[p[0]], e.newID[p[1]]}
	}
	sortPairs(e.pairs)
	for _, p := range e.pairs {
		e.buf = append(e.buf, '(')
		e.buf = strconv.AppendInt(e.buf, int64(p[0]), 10)
		e.buf = append(e.buf, ',')
		e.buf = strconv.AppendInt(e.buf, int64(p[1]), 10)
		e.buf = append(e.buf, ')')
	}
	if x == nil {
		return
	}

	// rf per read in new order.
	e.buf = append(e.buf, 'R')
	for _, th := range e.perm {
		for _, id := range e.evs[e.off[th]:e.off[th+1]] {
			if t.Events[id].Kind != litmus.KRead {
				continue
			}
			if src := x.RF[id]; src < 0 {
				e.buf = append(e.buf, "(i)"...)
			} else {
				e.buf = append(e.buf, '(')
				e.buf = strconv.AppendInt(e.buf, int64(e.newID[src]), 10)
				e.buf = append(e.buf, ')')
			}
		}
	}
	// co per address in naming order.
	e.buf = append(e.buf, 'C')
	for _, d := range e.addrOld {
		e.buf = append(e.buf, '|')
		if a := e.addrVal[d]; a < len(x.CO) {
			for _, w := range x.CO[a] {
				e.buf = strconv.AppendInt(e.buf, int64(e.newID[w]), 10)
				e.buf = append(e.buf, ',')
			}
		}
	}
	// sc order.
	if x.SC != nil {
		e.buf = append(e.buf, 'S')
		for _, f := range x.SC {
			e.buf = strconv.AppendInt(e.buf, int64(e.newID[f]), 10)
			e.buf = append(e.buf, ',')
		}
	}
}

func sortTriples(xs [][3]int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && less3(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func sortPairs(xs [][2]int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && less2(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func less2(a, b [2]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

func less3(a, b [3]int) bool {
	for i := 0; i < 3; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
