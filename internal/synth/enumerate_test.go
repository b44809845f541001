package synth

import (
	"testing"

	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
)

// TestEnumerateProgramsMatchesEngine: the exported enumerator must stream
// exactly the program space the synthesis engine explores — same
// generator, same pruning — so its count equals Stats.ProgramsRaw. sc and
// tso have no dependency types, so they prune isolated addresses unless
// KeepIsolatedAddrs is set; power has dependencies and never prunes.
func TestEnumerateProgramsMatchesEngine(t *testing.T) {
	for _, c := range []struct {
		name string
		m    memmodel.Model
		opts Options
	}{
		{"sc@3", memmodel.SC(), Options{MaxEvents: 3}},
		{"tso@3", memmodel.TSO(), Options{MaxEvents: 3}},
		{"power@3", memmodel.Power(), Options{MaxEvents: 3}},
		{"sc@3/keep", memmodel.SC(), Options{MaxEvents: 3, KeepTrivialFences: true, KeepIsolatedAddrs: true}},
	} {
		res := Synthesize(c.m, c.opts)
		count := 0
		err := EnumeratePrograms(c.m.Vocab(), c.opts, func(t *litmus.Test) bool {
			count++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if count != res.Stats.ProgramsRaw {
			t.Errorf("%s: enumerated %d programs, engine generated %d",
				c.name, count, res.Stats.ProgramsRaw)
		}
	}
}

// TestEnumerateProgramsAbort: returning false from emit stops the stream.
func TestEnumerateProgramsAbort(t *testing.T) {
	count := 0
	err := EnumeratePrograms(memmodel.SC().Vocab(), Options{MaxEvents: 4}, func(t *litmus.Test) bool {
		count++
		return count < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("emitted %d programs after abort at 5", count)
	}
}

// TestEnumerateProgramsValidates: invalid bounds are rejected as errors,
// not panics.
func TestEnumerateProgramsValidates(t *testing.T) {
	err := EnumeratePrograms(memmodel.SC().Vocab(), Options{}, func(*litmus.Test) bool { return true })
	if err == nil {
		t.Error("no error for zero MaxEvents")
	}
}
