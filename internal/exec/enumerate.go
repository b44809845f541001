package exec

import "memsynth/internal/litmus"

// EnumerateOptions controls execution enumeration.
type EnumerateOptions struct {
	// UseSC enumerates all total orders over FSC fences (needed by models,
	// such as SCC, whose axioms consult an sc order). When false, SC is
	// left nil.
	UseSC bool
	// RFFilter, when non-nil, is consulted once per complete reads-from
	// assignment before the coherence (and sc) orders extending it are
	// enumerated. Returning false skips every execution of that
	// assignment — none is visited or counted — and enumeration continues
	// with the next assignment. The slice is indexed by event ID (-1 =
	// initial read) and reused between calls; it must not be retained.
	RFFilter func(rf []int) bool
	// Stop, when non-nil, is polled once per complete rf assignment
	// (before RFFilter); returning true aborts the enumeration. It
	// complements early exit through the visit callback, which is never
	// reached for assignments RFFilter rejects.
	Stop func() bool
}

// Enumerate visits every well-formed candidate execution of t: every
// assignment of reads to same-address writes or the initial value, every
// per-address total coherence order, and (optionally) every total order of
// SC fences. The *Execution passed to visit is reused between calls; clone
// it to retain it. Enumeration stops early when visit returns false.
// Enumerate returns the number of executions visited. It runs on a fresh
// Enumerator; callers enumerating many programs should hold one.
func Enumerate(t *litmus.Test, opts EnumerateOptions, visit func(*Execution) bool) int {
	var en Enumerator
	return en.Enumerate(t, opts, visit)
}

// Enumerator enumerates candidate executions into buffers it keeps from
// one call to the next: the Execution, its RF and CO slices, the read and
// per-address write lists, and the coherence permutation buffers. A warm
// Enumerator allocates only when a test needs more room than an earlier
// one did, or to permute sc fences under UseSC.
// The Execution passed to visit, with its RF, CO and SC slices, is the
// enumerator's own and is overwritten as enumeration proceeds: clone it
// to keep it past the visit. An Enumerator is not safe for concurrent
// use.
type Enumerator struct {
	x        Execution
	opts     EnumerateOptions
	visit    func(*Execution) bool
	count    int
	reads    []int
	writes   [][]int // writes[a]: the writes to address a, in event order
	coPerm   [][]int // coPerm[a]: the co permutation buffer of address a
	scFences []int
}

// Enumerate is exec.Enumerate over the enumerator's buffers: the same
// executions in the same order, with the same options and count.
func (en *Enumerator) Enumerate(t *litmus.Test, opts EnumerateOptions, visit func(*Execution) bool) int {
	numAddrs := t.NumAddrs()
	en.x.Test, en.x.SC = t, nil
	en.x.RF = resizeInts(en.x.RF, len(t.Events))
	for i := range en.x.RF {
		en.x.RF[i] = -1
	}
	if cap(en.x.CO) < numAddrs {
		en.x.CO = make([][]int, numAddrs)
	}
	en.x.CO = en.x.CO[:numAddrs]
	for len(en.writes) < numAddrs {
		en.writes = append(en.writes, nil)
		en.coPerm = append(en.coPerm, nil)
	}
	for a := 0; a < numAddrs; a++ {
		en.writes[a] = en.writes[a][:0]
	}
	en.reads, en.scFences = en.reads[:0], en.scFences[:0]
	for _, e := range t.Events {
		switch {
		case e.Kind == litmus.KRead:
			en.reads = append(en.reads, e.ID)
		case e.Kind == litmus.KWrite:
			en.writes[e.Addr] = append(en.writes[e.Addr], e.ID)
		case e.Kind == litmus.KFence && e.Fence == litmus.FSC:
			en.scFences = append(en.scFences, e.ID)
		}
	}
	en.opts, en.visit, en.count = opts, visit, 0
	en.rf(0)
	en.opts, en.visit = EnumerateOptions{}, nil
	return en.count
}

// rf chooses the source of read i and onward (outermost level), then
// enumerates the coherence orders of each complete assignment.
func (en *Enumerator) rf(i int) bool {
	if i == len(en.reads) {
		if en.opts.Stop != nil && en.opts.Stop() {
			return false
		}
		if en.opts.RFFilter != nil && !en.opts.RFFilter(en.x.RF) {
			return true
		}
		return en.co(0)
	}
	r := en.reads[i]
	en.x.RF[r] = -1
	if !en.rf(i + 1) {
		return false
	}
	for _, w := range en.writes[en.x.Test.Events[r].Addr] {
		en.x.RF[r] = w
		if !en.rf(i + 1) {
			return false
		}
	}
	en.x.RF[r] = -1
	return true
}

// co enumerates the coherence orders of address addr and onward, address
// by address, innermost the sc orders.
func (en *Enumerator) co(addr int) bool {
	if addr == len(en.x.CO) {
		return en.sc()
	}
	if len(en.writes[addr]) == 0 {
		en.x.CO[addr] = nil
		return en.co(addr + 1)
	}
	en.coPerm[addr] = append(en.coPerm[addr][:0], en.writes[addr]...)
	en.x.CO[addr] = en.coPerm[addr]
	return en.permuteCO(addr, 0)
}

// permuteCO places every remaining write of address addr at position k of
// its coherence order, in forEachPermutation's order.
func (en *Enumerator) permuteCO(addr, k int) bool {
	perm := en.coPerm[addr]
	if k == len(perm) {
		return en.co(addr + 1)
	}
	for i := k; i < len(perm); i++ {
		perm[k], perm[i] = perm[i], perm[k]
		if !en.permuteCO(addr, k+1) {
			return false
		}
		perm[k], perm[i] = perm[i], perm[k]
	}
	return true
}

// sc visits the execution once, or once per sc order under UseSC.
func (en *Enumerator) sc() bool {
	if !en.opts.UseSC || len(en.scFences) == 0 {
		en.x.SC = nil
		en.count++
		return en.visit(&en.x)
	}
	ok := true
	forEachPermutation(en.scFences, func(perm []int) bool {
		en.x.SC = perm
		en.count++
		ok = en.visit(&en.x)
		return ok
	})
	return ok
}

// resizeInts returns s with length n, reusing its backing array when it
// is large enough.
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// forEachPermutation visits every permutation of items. The slice passed to
// visit is reused; visiting stops when visit returns false.
func forEachPermutation(items []int, visit func([]int) bool) {
	perm := append([]int(nil), items...)
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(perm) {
			return visit(perm)
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			if !rec(k + 1) {
				return false
			}
			perm[k], perm[i] = perm[i], perm[k]
		}
		return true
	}
	rec(0)
}

// SCOrders returns the sc orders a model that consults one quantifies
// over for test t: every total order of t's FSC fences when it has two or
// more, else nil. The order is auxiliary (paper §6.3): an outcome is
// allowed when the model holds under some order and forbidden when it
// fails under every one. With fewer than two fences the order has no edge,
// so there is nothing to quantify over.
func SCOrders(t *litmus.Test) [][]int {
	var fences []int
	for _, e := range t.Events {
		if e.Kind == litmus.KFence && e.Fence == litmus.FSC {
			fences = append(fences, e.ID)
		}
	}
	if len(fences) < 2 {
		return nil
	}
	var orders [][]int
	forEachPermutation(fences, func(perm []int) bool {
		orders = append(orders, append([]int(nil), perm...))
		return true
	})
	return orders
}

// CountExecutions returns the number of well-formed candidate executions of
// t without visiting them.
func CountExecutions(t *litmus.Test, opts EnumerateOptions) int {
	total, _ := counts(t, opts)
	return total
}

// ExtensionsPerRF returns the number of candidate executions sharing any
// one reads-from assignment of t: the product of the per-address
// coherence permutations (times the sc-fence permutations under UseSC).
// It is what one RFFilter rejection skips.
func ExtensionsPerRF(t *litmus.Test, opts EnumerateOptions) int {
	_, perRF := counts(t, opts)
	return perRF
}

// counts returns the number of candidate executions of t and the number
// sharing one reads-from assignment. It counts each address's writes and
// reads by a scan of the events rather than into a slice, so it
// allocates nothing.
func counts(t *litmus.Test, opts EnumerateOptions) (total, perRF int) {
	total, perRF = 1, 1
	scFences := 0
	for a := t.NumAddrs() - 1; a >= 0; a-- {
		writes, reads := 0, 0
		for _, e := range t.Events {
			if e.Addr != a {
				continue
			}
			switch e.Kind {
			case litmus.KWrite:
				writes++
			case litmus.KRead:
				reads++
			}
		}
		perRF *= factorial(writes)
		for ; reads > 0; reads-- {
			total *= writes + 1
		}
	}
	for _, e := range t.Events {
		if e.Kind == litmus.KFence && e.Fence == litmus.FSC {
			scFences++
		}
	}
	if opts.UseSC && scFences > 0 {
		perRF *= factorial(scFences)
	}
	return total * perRF, perRF
}

func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}
