// Package tsosim implements the operational x86-TSO abstract machine of
// Owens et al. (2009): per-thread FIFO store buffers with store-to-load
// forwarding, a fence that drains the issuing thread's buffer, and locked
// read-modify-writes that execute against memory with an empty buffer.
//
// The simulator exhaustively explores every interleaving of instruction
// steps and buffer drains and returns the set of observable outcomes. It
// exists to cross-validate the axiomatic TSO model of package memmodel
// (paper Fig. 4), checked here by testing: for any test over TSO's
// vocabulary every machine outcome is allowed by the model, and the two
// agree exactly unless a thread loads after an RMW. The locked RMW
// drains the buffer and writes straight to memory, as x86 does, so it
// orders its write before every later load; Fig. 4's ppo (po minus
// write→read pairs) does not, so the model allows more there.
package tsosim

import (
	"fmt"
	"sort"
	"strings"

	"memsynth/internal/litmus"
)

// Outcome is one observable result of running a test: per-read source
// write IDs (-1 for the initial value) and the final write per address (-1
// if never written).
type Outcome struct {
	// ReadsFrom maps each event ID to its source write ID; entries for
	// non-reads are -1.
	ReadsFrom []int
	// FinalWrite maps each address to the event ID of the last write.
	FinalWrite []int
}

// Key returns a canonical string for set membership.
func (o Outcome) Key() string {
	var b strings.Builder
	for _, r := range o.ReadsFrom {
		fmt.Fprintf(&b, "%d,", r)
	}
	b.WriteByte('|')
	for _, w := range o.FinalWrite {
		fmt.Fprintf(&b, "%d,", w)
	}
	return b.String()
}

// bufferEntry is one pending store in a thread's store buffer.
type bufferEntry struct {
	addr    int
	writeID int
}

// state is a machine configuration.
type state struct {
	pc      []int           // next instruction index per thread
	buffers [][]bufferEntry // FIFO store buffer per thread
	memory  []int           // write ID per address (-1 initial)
	reads   []int           // source write per read event (-1 initial)
	pending []int           // skipped load per thread (fault injection; nil when unused)
}

func (s *state) clone() *state {
	c := &state{
		pc:     append([]int(nil), s.pc...),
		memory: append([]int(nil), s.memory...),
		reads:  append([]int(nil), s.reads...),
	}
	if s.pending != nil {
		c.pending = append([]int(nil), s.pending...)
	}
	c.buffers = make([][]bufferEntry, len(s.buffers))
	for i, b := range s.buffers {
		c.buffers[i] = append([]bufferEntry(nil), b...)
	}
	return c
}

func (s *state) key() string {
	var b strings.Builder
	for _, p := range s.pc {
		fmt.Fprintf(&b, "%d,", p)
	}
	b.WriteByte('|')
	for _, buf := range s.buffers {
		for _, e := range buf {
			fmt.Fprintf(&b, "%d:%d,", e.addr, e.writeID)
		}
		b.WriteByte(';')
	}
	b.WriteByte('|')
	for _, m := range s.memory {
		fmt.Fprintf(&b, "%d,", m)
	}
	b.WriteByte('|')
	for _, r := range s.reads {
		fmt.Fprintf(&b, "%d,", r)
	}
	if s.pending != nil {
		b.WriteByte('|')
		for _, p := range s.pending {
			fmt.Fprintf(&b, "%d,", p)
		}
	}
	return b.String()
}

// Run explores all interleavings of t on the x86-TSO machine and returns
// the set of observable outcomes keyed by Outcome.Key. t may use plain
// reads and writes, mfence, and adjacent RMW pairs; other vocabulary
// returns an error. It is the machine without a seeded fault.
func Run(t *litmus.Test) (map[string]Outcome, error) { return RunFaulty(t, FaultNone) }

// Keys returns the sorted outcome keys — convenient for set comparison.
func Keys(outcomes map[string]Outcome) []string {
	keys := make([]string, 0, len(outcomes))
	for k := range outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
