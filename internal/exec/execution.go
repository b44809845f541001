// Package exec defines candidate executions of litmus tests and the
// relational views that memory-model axioms are evaluated against.
//
// Following the paper's pragmatic formulation (Fig. 5c), an execution *is*
// an outcome: it fixes the reads-from relation (rf), the per-address
// coherence order (co), and — for models with sequentially consistent fences
// — the total order (sc) over those fences. Axioms judge executions; an
// execution that violates an axiom is a forbidden outcome of the test.
//
// The package also implements the paper's instruction relaxations at the
// relation level: a View can be constructed with a Perturbation, in which
// case every derived relation is recomputed from the perturbed base
// relations (the _p relations of the paper's Fig. 6), including the
// transitive-closure repair of co (Fig. 8) and the unconstrained treatment
// of reads orphaned by Remove Instruction (paper §4.3).
package exec

import (
	"fmt"
	"strings"

	"memsynth/internal/litmus"
)

// Execution fixes the dynamic relations of one candidate execution of a
// litmus test. Well-formedness (rf respects addresses, co is a permutation
// of the writes per address) is guaranteed by the enumerator and checked
// by WellFormed; validity under a memory model is judged by the model's
// axioms.
type Execution struct {
	// Test is the litmus test this execution belongs to.
	Test *litmus.Test
	// RF maps each read event ID to its source write event ID, or -1 when
	// the read observes the implicit initial value. Entries for non-read
	// events are -1 and meaningless.
	RF []int
	// CO lists, per address, the write event IDs in coherence order.
	// Addresses with no writes have empty (or missing) entries.
	CO [][]int
	// SC lists the FSC fence event IDs in sequentially-consistent order.
	// It is nil for tests without SC fences or models that do not use an
	// sc order.
	SC []int
}

// Clone returns a deep copy of the execution.
func (x *Execution) Clone() *Execution {
	c := &Execution{Test: x.Test}
	c.RF = append([]int(nil), x.RF...)
	c.CO = make([][]int, len(x.CO))
	for a, ws := range x.CO {
		c.CO[a] = append([]int(nil), ws...)
	}
	if x.SC != nil {
		c.SC = append([]int(nil), x.SC...)
	}
	return c
}

// WellFormed reports the first way x is not a candidate execution of its
// test: RF must hold one slot per event, and every read's source must be
// -1 or a write to the read's address; CO[a] must be a permutation of
// address a's writes; SC must be nil or a permutation of the FSC fences.
// The enumerator only builds well-formed executions. Executions rebuilt
// from untrusted bytes (a shard upload, a stored manifest) are checked
// here before anything indexes through their relations.
func (x *Execution) WellFormed() error {
	t := x.Test
	if len(x.RF) != len(t.Events) {
		return fmt.Errorf("exec: rf has %d slots for %d events", len(x.RF), len(t.Events))
	}
	numAddrs := t.NumAddrs()
	if len(x.CO) > numAddrs {
		return fmt.Errorf("exec: co has %d addresses, test has %d", len(x.CO), numAddrs)
	}
	writes := make([][]int, numAddrs)
	var fences []int
	for _, e := range t.Events {
		switch {
		case e.Kind == litmus.KRead:
			src := x.RF[e.ID]
			if src < -1 || src >= len(t.Events) ||
				src >= 0 && (t.Events[src].Kind != litmus.KWrite || t.Events[src].Addr != e.Addr) {
				return fmt.Errorf("exec: read %d reads from %d, not the initial value or a write to its address", e.ID, src)
			}
		case e.Kind == litmus.KWrite:
			writes[e.Addr] = append(writes[e.Addr], e.ID)
		case e.Kind == litmus.KFence && e.Fence == litmus.FSC:
			fences = append(fences, e.ID)
		}
	}
	for a, ws := range writes {
		var co []int
		if a < len(x.CO) {
			co = x.CO[a]
		}
		if !isPermutation(co, ws) {
			return fmt.Errorf("exec: co of address %d is %v, not an order of its writes %v", a, co, ws)
		}
	}
	if x.SC != nil && !isPermutation(x.SC, fences) {
		return fmt.Errorf("exec: sc is %v, not an order of the sc fences %v", x.SC, fences)
	}
	return nil
}

// isPermutation reports whether order lists every ID of set exactly once
// and nothing else.
func isPermutation(order, set []int) bool {
	if len(order) != len(set) {
		return false
	}
	for _, id := range set {
		n := 0
		for _, o := range order {
			if o == id {
				n++
			}
		}
		if n != 1 {
			return false
		}
	}
	return true
}

// coPosition returns the 1-based coherence position of write w, which is
// also its value in the concrete rendering of the test.
func (x *Execution) coPosition(w int) int {
	addr := x.Test.Events[w].Addr
	for i, id := range x.CO[addr] {
		if id == w {
			return i + 1
		}
	}
	return 0
}

// WriteValue returns the concrete value stored by write w: its 1-based
// position in the coherence order of its address.
func (x *Execution) WriteValue(w int) int { return x.coPosition(w) }

// ReadValue returns the concrete value observed by read r: 0 for the
// initial value, otherwise the value of its rf source.
func (x *Execution) ReadValue(r int) int {
	src := x.RF[r]
	if src < 0 {
		return 0
	}
	return x.coPosition(src)
}

// FinalValue returns the final value of address a: the value of the
// coherence-last write, or 0 if the address is never written.
func (x *Execution) FinalValue(a int) int {
	if a >= len(x.CO) || len(x.CO[a]) == 0 {
		return 0
	}
	return len(x.CO[a])
}

// OutcomeString renders the observable outcome: one "rN=v" term per read in
// event-ID order plus a final "[addr]=v" term per written address, e.g.
// "r0=1 r1=0 [x]=2".
func (x *Execution) OutcomeString() string {
	var parts []string
	for _, e := range x.Test.Events {
		if e.Kind == litmus.KRead {
			parts = append(parts, fmt.Sprintf("r%d=%d", e.ID, x.ReadValue(e.ID)))
		}
	}
	for a := 0; a < x.Test.NumAddrs(); a++ {
		if a < len(x.CO) && len(x.CO[a]) > 0 {
			parts = append(parts, fmt.Sprintf("[%s]=%d", litmus.AddrName(a), x.FinalValue(a)))
		}
	}
	return strings.Join(parts, " ")
}

// OutcomeConds projects the observable outcome onto litmus outcome
// conditions — one read observation per read in event order plus one final
// value per written address — the form the textual forbid: directive uses.
// It is the serialization counterpart of OutcomeString used when suites
// are persisted as parseable litmus text.
func (x *Execution) OutcomeConds() []litmus.OutcomeCond {
	var conds []litmus.OutcomeCond
	for _, e := range x.Test.Events {
		if e.Kind == litmus.KRead {
			conds = append(conds, litmus.OutcomeCond{
				Thread: e.Thread, Index: e.Index, Value: x.ReadValue(e.ID),
			})
		}
	}
	for a := 0; a < x.Test.NumAddrs(); a++ {
		if a < len(x.CO) && len(x.CO[a]) > 0 {
			conds = append(conds, litmus.OutcomeCond{Final: true, Addr: a, Value: x.FinalValue(a)})
		}
	}
	return conds
}

// String renders the execution with its test name and outcome.
func (x *Execution) String() string {
	return fmt.Sprintf("%s / %s", x.Test.Name, x.OutcomeString())
}
