package exec

import (
	"fmt"
	"testing"

	"memsynth/internal/litmus"
)

// referenceEnumerate is the closure-based enumeration the Enumerator
// replaced, kept as the reference for its order: rf outermost, then co
// address by address, then sc orders.
func referenceEnumerate(t *litmus.Test, opts EnumerateOptions, visit func(*Execution) bool) int {
	numAddrs := t.NumAddrs()
	x := &Execution{Test: t, RF: make([]int, len(t.Events)), CO: make([][]int, numAddrs)}
	for i := range x.RF {
		x.RF[i] = -1
	}
	var reads, scFences []int
	writesByAddr := make([][]int, numAddrs)
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
	enumSC := func() bool {
		if !opts.UseSC || len(scFences) == 0 {
			x.SC = nil
			count++
			return visit(x)
		}
		ok := true
		forEachPermutation(scFences, func(perm []int) bool {
			x.SC = perm
			count++
			ok = visit(x)
			return ok
		})
		return ok
	}
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
			ok = enumCO(addr + 1)
			return ok
		})
		return ok
	}
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
		x.RF[r] = -1
		if !enumRF(i + 1) {
			return false
		}
		for _, w := range writesByAddr[t.Events[r].Addr] {
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

// enumeratorCorpus mixes sizes, address counts, addresses without writes,
// RMW pairs and sc fences, largest first, so a reused Enumerator meets
// smaller tests after larger ones.
func enumeratorCorpus() []*litmus.Test {
	return []*litmus.Test{
		litmus.New("3addr", [][]litmus.Op{
			{litmus.W(0), litmus.W(1), litmus.F(litmus.FSC), litmus.R(2)},
			{litmus.W(2), litmus.W(0), litmus.F(litmus.FSC), litmus.R(1)},
			{litmus.W(0), litmus.R(0), litmus.F(litmus.FSC)},
		}),
		sb(),
		litmus.New("rmw", [][]litmus.Op{{litmus.R(0), litmus.W(0)}, {litmus.W(0), litmus.R(1)}},
			litmus.WithRMW(0, 0)),
		mp(),
		litmus.New("readonly", [][]litmus.Op{{litmus.R(0)}, {litmus.R(1), litmus.W(0)}}),
		litmus.New("one", [][]litmus.Op{{litmus.W(0)}}),
	}
}

// trace records every visited execution, and the enumeration's count.
func trace(enumerate func(*litmus.Test, EnumerateOptions, func(*Execution) bool) int,
	t *litmus.Test, opts EnumerateOptions, stopAfter int) []string {
	var out []string
	n := enumerate(t, opts, func(x *Execution) bool {
		out = append(out, fmt.Sprint(x.RF, x.CO, x.SC))
		return len(out) != stopAfter
	})
	return append(out, fmt.Sprint("count ", n))
}

// TestEnumeratorMatchesReference: one Enumerator reused across the corpus,
// with and without sc orders, an RF filter, a stop poll and early exit,
// visits exactly the reference's executions in the reference's order.
func TestEnumeratorMatchesReference(t *testing.T) {
	var en Enumerator
	for round := 0; round < 2; round++ {
		for _, lt := range enumeratorCorpus() {
			polls := 0
			for _, opts := range []EnumerateOptions{
				{},
				{UseSC: true},
				{RFFilter: func(rf []int) bool { return rf[len(rf)-1] < 0 }},
				{Stop: func() bool { polls++; return polls%5 == 0 }},
			} {
				for _, stopAfter := range []int{0, 3} {
					got := trace(en.Enumerate, lt, opts, stopAfter)
					polls = 0
					want := trace(referenceEnumerate, lt, opts, stopAfter)
					polls = 0
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s (sc=%v, stop after %d):\n got %v\nwant %v", lt.Name, opts.UseSC, stopAfter, got, want)
					}
				}
			}
		}
	}
}

// TestEnumeratorAllocs: a warm Enumerator enumerates a test it has room
// for without allocating. Sc orders (UseSC) are outside the contract; the
// engine never asks for them.
func TestEnumeratorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var en Enumerator
	visits := 0
	visit := func(*Execution) bool { visits++; return true }
	for _, lt := range enumeratorCorpus() {
		en.Enumerate(lt, EnumerateOptions{}, visit)
	}
	for _, lt := range enumeratorCorpus() {
		if allocs := testing.AllocsPerRun(20, func() { en.Enumerate(lt, EnumerateOptions{}, visit) }); allocs != 0 {
			t.Errorf("%s: warm Enumerate allocates %.1f times per call", lt.Name, allocs)
		}
	}
}

// TestCountsMatchEnumeration: CountExecutions counts what Enumerate
// visits, and ExtensionsPerRF what one reads-from assignment extends to.
func TestCountsMatchEnumeration(t *testing.T) {
	for _, lt := range enumeratorCorpus() {
		for _, opts := range []EnumerateOptions{{}, {UseSC: true}} {
			rfs := 0
			opts.RFFilter = func([]int) bool { rfs++; return true }
			n := Enumerate(lt, opts, func(*Execution) bool { return true })
			if got := CountExecutions(lt, opts); got != n {
				t.Errorf("%s (sc=%v): CountExecutions = %d, Enumerate visits %d", lt.Name, opts.UseSC, got, n)
			}
			if got := ExtensionsPerRF(lt, opts); got*rfs != n {
				t.Errorf("%s (sc=%v): ExtensionsPerRF = %d over %d assignments, Enumerate visits %d",
					lt.Name, opts.UseSC, got, rfs, n)
			}
		}
	}
}
