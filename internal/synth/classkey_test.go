package synth

import (
	"fmt"
	"testing"

	"memsynth/internal/canon"
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/minimal"
)

// TestEntryKeysStayInProgramClass pins the fact the engine's per-program
// dedupe rests on: a canonical (program, outcome) key never comes from two
// program symmetry classes, so counting distinct keys per program and
// adding the counts gives the run's distinct counts. A sequential replay
// through the public layers — EnumeratePrograms, first-wins ProgramKey,
// exec.Enumerate, minimal.Checker, canon.Key — collects every forbidden
// key with its program class, and the engine's Entries and
// ForbiddenOutcomes must equal the replay's global distinct counts.
//
// The engine also keeps only the first finding of a key within a program,
// which drops nothing only if every repeat of a key within one program is
// minimal for the same axioms; the replay checks that too, and fails if no
// builtin repeats a key at all, so the check cannot pass vacuously. Every
// builtin runs at bound 4, except armv8, scc and hsa at bound 3.
func TestEntryKeysStayInProgramClass(t *testing.T) {
	small := map[string]bool{"armv8": true, "scc": true, "hsa": true}
	repeats, ran := 0, 0
	for _, m := range memmodel.All() {
		bound := 4
		if small[m.Name()] {
			bound = 3
		}
		t.Run(m.Name(), func(t *testing.T) {
			opts := Options{MaxEvents: bound, CountForbidden: true}
			class := make(map[string]string) // forbidden key → program key
			entries := make(map[string]bool)
			seen := make(map[string]bool)
			c := minimal.NewChecker(m)
			err := EnumeratePrograms(m.Vocab(), opts, func(p *litmus.Test) bool {
				pk := canon.ProgramKey(p)
				if seen[pk] {
					return true
				}
				seen[pk] = true
				axioms := make(map[string]string) // entry key → its MinimalFor axioms
				c.Bind(p)
				exec.Enumerate(p, exec.EnumerateOptions{}, func(x *exec.Execution) bool {
					v := c.Check(x)
					if len(v.ViolatedAxioms) == 0 {
						return true
					}
					key := canon.Key(x)
					if prev, ok := class[key]; ok && prev != pk {
						t.Errorf("key %s comes from program classes %s and %s", key, prev, pk)
					}
					class[key] = pk
					if mins := v.MinimalFor(); len(mins) > 0 {
						set := fmt.Sprint(mins)
						if prev, ok := axioms[key]; ok {
							repeats++
							if prev != set {
								t.Errorf("key %s repeats in one program minimal for axioms %s and %s", key, prev, set)
							}
						}
						axioms[key] = set
						entries[key] = true
					}
					return true
				})
				return !t.Failed()
			})
			if err != nil {
				t.Fatal(err)
			}
			res := Synthesize(m, opts)
			if res.Stats.ForbiddenOutcomes != len(class) || res.Stats.Entries != len(entries) {
				t.Errorf("engine counts %d forbidden outcomes and %d entries, replay %d and %d",
					res.Stats.ForbiddenOutcomes, res.Stats.Entries, len(class), len(entries))
			}
			t.Logf("%s@%d: %d programs, %d forbidden keys, %d entries", m.Name(), bound, len(seen), len(class), len(entries))
			ran++
		})
	}
	if ran == len(memmodel.All()) && repeats == 0 {
		t.Error("no builtin repeated an entry key within a program; the axiom-set check checked nothing")
	}
	t.Logf("%d entry-key repeats within programs", repeats)
}
