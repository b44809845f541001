package tsosim

import (
	"fmt"

	"memsynth/internal/litmus"
)

// Fault selects a seeded implementation bug in the abstract machine —
// the defect classes litmus testing exists to catch (the paper's
// introduction cites recall-caliber consistency bugs at every major
// vendor). RunFaulty injects one and the testing harness shows which
// litmus tests expose it.
type Fault uint8

const (
	// FaultNone is the correct machine.
	FaultNone Fault = iota
	// FaultIgnoreFence makes mfence a no-op (it no longer waits for the
	// store buffer to drain) — the classic missing-fence bug.
	FaultIgnoreFence
	// FaultNonFIFOBuffer lets any buffered store, not just the oldest,
	// drain to memory — breaking W->W ordering (TSO degenerates toward
	// PSO).
	FaultNonFIFOBuffer
	// FaultNoForwarding makes loads ignore the thread's own store buffer
	// — breaking the "reads see own stores" guarantee.
	FaultNoForwarding
	// FaultUnlockedRMW executes RMW pairs without the bus lock: the read
	// and write hit memory, but other threads' stores may slip between
	// them (the buffer-drain requirement is also dropped).
	FaultUnlockedRMW
	// FaultReadReorder lets a load be satisfied from memory early, before
	// a program-earlier load of another address has executed — breaking
	// R->R ordering.
	FaultReadReorder

	numFaults = int(FaultReadReorder) + 1
)

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultIgnoreFence:
		return "ignore-fence"
	case FaultNonFIFOBuffer:
		return "non-fifo-buffer"
	case FaultNoForwarding:
		return "no-forwarding"
	case FaultUnlockedRMW:
		return "unlocked-rmw"
	case FaultReadReorder:
		return "read-reorder"
	}
	return fmt.Sprintf("Fault(%d)", uint8(f))
}

// AllFaults returns the seeded defects (excluding FaultNone).
func AllFaults() []Fault {
	return []Fault{
		FaultIgnoreFence, FaultNonFIFOBuffer, FaultNoForwarding,
		FaultUnlockedRMW, FaultReadReorder,
	}
}

// RunFaulty explores all interleavings of t on a machine with the given
// seeded fault and returns its outcome set; FaultNone is the correct
// machine, Run.
func RunFaulty(t *litmus.Test, fault Fault) (map[string]Outcome, error) {
	for _, e := range t.Events {
		switch e.Kind {
		case litmus.KRead, litmus.KWrite:
			if e.Order != litmus.OPlain {
				return nil, fmt.Errorf("tsosim: event %d has non-TSO order %v", e.ID, e.Order)
			}
		case litmus.KFence:
			if e.Fence != litmus.FMFence {
				return nil, fmt.Errorf("tsosim: event %d has non-TSO fence %v", e.ID, e.Fence)
			}
		}
	}

	numThreads := t.NumThreads()
	threads := make([][]int, numThreads)
	for th := 0; th < numThreads; th++ {
		threads[th] = t.Thread(th)
	}
	isRMWRead := make([]bool, len(t.Events))
	for _, p := range t.RMW {
		isRMWRead[p[0]] = true
	}

	init := &state{
		pc:      make([]int, numThreads),
		buffers: make([][]bufferEntry, numThreads),
		memory:  make([]int, t.NumAddrs()),
		reads:   make([]int, len(t.Events)),
	}
	for i := range init.memory {
		init.memory[i] = -1
	}
	for i := range init.reads {
		init.reads[i] = -1
	}
	if fault == FaultReadReorder {
		init.pending = make([]int, numThreads)
		for i := range init.pending {
			init.pending[i] = -1
		}
	}

	outcomes := make(map[string]Outcome)
	visited := make(map[string]bool)

	var explore func(s *state)
	explore = func(s *state) {
		k := s.key()
		if visited[k] {
			return
		}
		visited[k] = true

		done := true
		for th := 0; th < numThreads; th++ {
			if s.pc[th] < len(threads[th]) || len(s.buffers[th]) > 0 ||
				(s.pending != nil && s.pending[th] >= 0) {
				done = false
			}
		}
		if done {
			o := Outcome{
				ReadsFrom:  append([]int(nil), s.reads...),
				FinalWrite: append([]int(nil), s.memory...),
			}
			outcomes[o.Key()] = o
			return
		}

		for th := 0; th < numThreads; th++ {
			// Drain buffered stores. With a FIFO buffer only the oldest
			// may drain; FaultNonFIFOBuffer lets any entry go first.
			drainable := 0
			if fault == FaultNonFIFOBuffer {
				drainable = len(s.buffers[th]) - 1
			}
			if len(s.buffers[th]) > 0 {
				for d := 0; d <= drainable; d++ {
					n := s.clone()
					e := n.buffers[th][d]
					n.buffers[th] = append(append([]bufferEntry(nil),
						n.buffers[th][:d]...), n.buffers[th][d+1:]...)
					n.memory[e.addr] = e.writeID
					explore(n)
				}
			}
			// A pending (skipped) load must resolve before the thread
			// proceeds — it reads the *current* memory, which may have
			// changed since the program-later load was satisfied.
			if s.pending != nil && s.pending[th] >= 0 {
				n := s.clone()
				pid := n.pending[th]
				n.reads[pid] = readValue(n, th, t.Events[pid].Addr, true)
				n.pending[th] = -1
				explore(n)
				continue
			}
			if s.pc[th] >= len(threads[th]) {
				continue
			}
			id := threads[th][s.pc[th]]
			ev := t.Events[id]
			switch {
			case ev.Kind == litmus.KFence:
				if fault == FaultIgnoreFence || len(s.buffers[th]) == 0 {
					n := s.clone()
					n.pc[th]++
					explore(n)
				}
			case isRMWRead[id]:
				bufferOK := len(s.buffers[th]) == 0 || fault == FaultUnlockedRMW
				if bufferOK {
					partner, _ := t.RMWPartner(id)
					if fault == FaultUnlockedRMW {
						// Split the pair: read now, write as a separate
						// buffered store (other stores may intervene).
						n := s.clone()
						n.reads[id] = readValue(n, th, ev.Addr, false)
						n.buffers[th] = append(n.buffers[th], bufferEntry{addr: ev.Addr, writeID: partner})
						n.pc[th] += 2
						explore(n)
					} else {
						n := s.clone()
						n.reads[id] = n.memory[ev.Addr]
						n.memory[ev.Addr] = partner
						n.pc[th] += 2
						explore(n)
					}
				}
			case ev.Kind == litmus.KRead:
				n := s.clone()
				n.reads[id] = readValue(n, th, ev.Addr, fault != FaultNoForwarding)
				n.pc[th]++
				explore(n)
				// FaultReadReorder: the program-next load may be satisfied
				// first while this one stays pending; other threads'
				// stores can land before the pending load resolves, so
				// the earlier load can observe the newer value.
				if fault == FaultReadReorder && !isRMWRead[id] && s.pc[th]+1 < len(threads[th]) {
					later := threads[th][s.pc[th]+1]
					lev := t.Events[later]
					if lev.Kind == litmus.KRead && !isRMWRead[later] && lev.Addr != ev.Addr {
						n2 := s.clone()
						n2.reads[later] = readValue(n2, th, lev.Addr, true)
						n2.pending[th] = id
						n2.pc[th] += 2
						explore(n2)
					}
				}
			case ev.Kind == litmus.KWrite:
				n := s.clone()
				n.buffers[th] = append(n.buffers[th], bufferEntry{addr: ev.Addr, writeID: id})
				n.pc[th]++
				explore(n)
			}
		}
	}
	explore(init)
	return outcomes, nil
}

// readValue resolves a load against the thread's buffer (newest same-address
// entry, when forwarding is enabled) or memory.
func readValue(s *state, th, addr int, forwarding bool) int {
	if forwarding {
		for i := len(s.buffers[th]) - 1; i >= 0; i-- {
			if s.buffers[th][i].addr == addr {
				return s.buffers[th][i].writeID
			}
		}
	}
	return s.memory[addr]
}
