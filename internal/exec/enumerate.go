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
// Enumerate returns the number of executions visited.
func Enumerate(t *litmus.Test, opts EnumerateOptions, visit func(*Execution) bool) int {
	numAddrs := t.NumAddrs()
	x := &Execution{
		Test: t,
		RF:   make([]int, len(t.Events)),
		CO:   make([][]int, numAddrs),
	}
	for i := range x.RF {
		x.RF[i] = -1
	}

	var reads []int
	writesByAddr := make([][]int, numAddrs)
	var scFences []int
	for _, e := range t.Events {
		switch {
		case e.Kind == litmus.KRead:
			reads = append(reads, e.ID)
		case e.Kind == litmus.KWrite:
			writesByAddr[e.Addr] = append(writesByAddr[e.Addr], e.ID)
		case e.Kind == litmus.KFence && e.Fence == litmus.FSC:
			scFences = append(scFences, e.ID)
		}
	}

	count := 0

	var enumSC func() bool
	if opts.UseSC && len(scFences) > 0 {
		enumSC = func() bool {
			ok := true
			forEachPermutation(scFences, func(perm []int) bool {
				x.SC = perm
				count++
				if !visit(x) {
					ok = false
				}
				return ok
			})
			return ok
		}
	} else {
		enumSC = func() bool {
			x.SC = nil
			count++
			return visit(x)
		}
	}

	// Enumerate coherence orders address by address, innermost the sc
	// orders.
	var enumCO func(addr int) bool
	enumCO = func(addr int) bool {
		if addr == numAddrs {
			return enumSC()
		}
		if len(writesByAddr[addr]) == 0 {
			x.CO[addr] = nil
			return enumCO(addr + 1)
		}
		ok := true
		forEachPermutation(writesByAddr[addr], func(perm []int) bool {
			x.CO[addr] = perm
			if !enumCO(addr + 1) {
				ok = false
			}
			return ok
		})
		return ok
	}

	// Outermost: rf choices per read.
	var enumRF func(i int) bool
	enumRF = func(i int) bool {
		if i == len(reads) {
			if opts.Stop != nil && opts.Stop() {
				return false
			}
			if opts.RFFilter != nil && !opts.RFFilter(x.RF) {
				return true
			}
			return enumCO(0)
		}
		r := reads[i]
		addr := t.Events[r].Addr
		x.RF[r] = -1
		if !enumRF(i + 1) {
			return false
		}
		for _, w := range writesByAddr[addr] {
			x.RF[r] = w
			if !enumRF(i + 1) {
				return false
			}
		}
		x.RF[r] = -1
		return true
	}

	enumRF(0)
	return count
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
	total := 1
	writesPerAddr := make([]int, t.NumAddrs())
	scFences := 0
	for _, e := range t.Events {
		switch {
		case e.Kind == litmus.KWrite:
			writesPerAddr[e.Addr]++
		case e.Kind == litmus.KFence && e.Fence == litmus.FSC:
			scFences++
		}
	}
	for _, e := range t.Events {
		if e.Kind == litmus.KRead {
			total *= writesPerAddr[e.Addr] + 1
		}
	}
	for _, w := range writesPerAddr {
		total *= factorial(w)
	}
	if opts.UseSC && scFences > 0 {
		total *= factorial(scFences)
	}
	return total
}

// ExtensionsPerRF returns the number of candidate executions sharing any
// one reads-from assignment of t: the product of the per-address
// coherence permutations (times the sc-fence permutations under UseSC).
// It is what one RFFilter rejection skips.
func ExtensionsPerRF(t *litmus.Test, opts EnumerateOptions) int {
	total := 1
	writesPerAddr := make([]int, t.NumAddrs())
	scFences := 0
	for _, e := range t.Events {
		switch {
		case e.Kind == litmus.KWrite:
			writesPerAddr[e.Addr]++
		case e.Kind == litmus.KFence && e.Fence == litmus.FSC:
			scFences++
		}
	}
	for _, w := range writesPerAddr {
		total *= factorial(w)
	}
	if opts.UseSC && scFences > 0 {
		total *= factorial(scFences)
	}
	return total
}

func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}
