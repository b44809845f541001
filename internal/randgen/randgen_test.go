package randgen

import (
	"fmt"
	"testing"

	"memsynth/internal/canon"
	"memsynth/internal/exec"
	"memsynth/internal/memmodel"
	"memsynth/internal/minimal"
	"memsynth/internal/synth"
)

func TestGeneratedTestsAreValid(t *testing.T) {
	for _, m := range memmodel.All() {
		g := New(m, Options{}, 42)
		for i := 0; i < 200; i++ {
			lt := g.Test()
			if err := lt.Validate(); err != nil {
				t.Fatalf("%s: invalid random test: %v\n%v", m.Name(), err, lt)
			}
			if lt.NumEvents() < 2 || lt.NumEvents() > 6 {
				t.Fatalf("%s: size %d out of bounds", m.Name(), lt.NumEvents())
			}
		}
	}
}

func TestDeterministicSeed(t *testing.T) {
	tso := memmodel.TSO()
	a, b := New(tso, Options{}, 7), New(tso, Options{}, 7)
	for i := 0; i < 50; i++ {
		if canon.ProgramKey(a.Test()) != canon.ProgramKey(b.Test()) {
			t.Fatal("same seed, different tests")
		}
	}
	c := New(tso, Options{}, 8)
	same := 0
	a = New(tso, Options{}, 7)
	for i := 0; i < 50; i++ {
		if canon.ProgramKey(a.Test()) == canon.ProgramKey(c.Test()) {
			same++
		}
	}
	if same == 50 {
		t.Error("different seeds produced identical streams")
	}
}

func TestForbiddenWitness(t *testing.T) {
	tso := memmodel.TSO()
	g := New(tso, Options{}, 3)
	foundForbidden, foundAllowed := false, false
	for i := 0; i < 300 && !(foundForbidden && foundAllowed); i++ {
		lt := g.Test()
		if w := ForbiddenWitness(tso, lt); w != nil {
			foundForbidden = true
			if w.Test != lt {
				t.Fatal("witness detached from test")
			}
		} else {
			foundAllowed = true
		}
	}
	if !foundForbidden {
		t.Error("no random test had a forbidden outcome")
	}
	if !foundAllowed {
		t.Error("every random test had a forbidden outcome (suspicious)")
	}
}

// TestForbiddenWitnessQuantifiesSCOrders: the sc order is auxiliary, so a
// witness must be invalid under every sc order, not only under the one an
// enumerated execution happens to carry. The pinned programs have two sc
// fences each, and an outcome that fails under one order but holds under
// the other: scc seed 80 is Ld.acq x; Ld.acq y; F.sc; F.sc; St y, where
// r0=0 r1=0 [y]=1 holds under the program-order sc order.
func TestForbiddenWitnessQuantifiesSCOrders(t *testing.T) {
	for _, tc := range []struct {
		m    memmodel.Model
		seed int64
	}{{memmodel.SCC(), 80}, {memmodel.HSA(), 161}} {
		lt := New(tc.m, Options{MaxEvents: 6}, tc.seed).Test()
		orders := exec.SCOrders(lt)
		if len(orders) < 2 {
			t.Fatalf("%s seed %d: %d sc orders, want a program with several\n%v", tc.m.Name(), tc.seed, len(orders), lt)
		}
		w := ForbiddenWitness(tc.m, lt)
		if w == nil {
			t.Fatalf("%s seed %d: no witness\n%v", tc.m.Name(), tc.seed, lt)
		}
		for _, sc := range orders {
			x := w.Clone()
			x.SC = sc
			if memmodel.Valid(tc.m, exec.NewView(x, exec.NoPerturb)) {
				t.Errorf("%s seed %d: witness %s is allowed under sc order %v\n%v",
					tc.m.Name(), tc.seed, w.OutcomeString(), sc, lt)
			}
		}
	}

	// Models without an sc order keep their witness: the first execution
	// the model rejects.
	tso := memmodel.TSO()
	g := New(tso, Options{}, 3)
	for i := 0; i < 100; i++ {
		lt := g.Test()
		var first *exec.Execution
		exec.Enumerate(lt, exec.EnumerateOptions{}, func(x *exec.Execution) bool {
			if !memmodel.Valid(tso, exec.NewView(x, exec.NoPerturb)) {
				first = x.Clone()
				return false
			}
			return true
		})
		w := ForbiddenWitness(tso, lt)
		if fmt.Sprint(w) != fmt.Sprint(first) || (w != nil && fmt.Sprint(w.RF, w.CO, w.SC) != fmt.Sprint(first.RF, first.CO, first.SC)) {
			t.Fatalf("tso witness %v, want the first rejected execution %v\n%v", w, first, lt)
		}
	}
}

// TestRandomCoverageVsSynthesis is the §2.1 comparison: random generation
// covers the synthesized minimal patterns slowly and with heavy redundancy.
func TestRandomCoverageVsSynthesis(t *testing.T) {
	tso := memmodel.TSO()
	res := synth.Synthesize(tso, synth.Options{MaxEvents: 4})
	target := map[string]bool{}
	for _, e := range res.Union.Entries {
		target[e.Key] = true
	}

	g := New(tso, Options{MaxEvents: 4}, 99)
	covered := map[string]bool{}
	redundant, productive := 0, 0
	const budget = 2000
	for i := 0; i < budget; i++ {
		lt := g.Test()
		w := ForbiddenWitness(tso, lt)
		if w == nil {
			redundant++ // nothing forbidden: useless for conformance
			continue
		}
		verdict := minimal.Check(tso, memmodel.Applications(tso, lt), w)
		if len(verdict.MinimalFor()) == 0 {
			redundant++
			continue
		}
		key := canon.Key(w)
		if target[key] && !covered[key] {
			covered[key] = true
			productive++
		} else {
			redundant++
		}
	}
	t.Logf("random: %d tests -> %d/%d minimal patterns covered, %d redundant",
		budget, len(covered), len(target), redundant)
	if len(covered) == len(target) {
		t.Log("random generation covered everything (unexpectedly lucky)")
	}
	if len(covered) == 0 {
		t.Error("random generation covered no minimal pattern")
	}
	if redundant < productive {
		t.Error("random generation unexpectedly efficient — check the comparison")
	}
}

func TestScopedRandomTests(t *testing.T) {
	hsa := memmodel.HSA()
	g := New(hsa, Options{}, 11)
	sawGroups := false
	for i := 0; i < 100; i++ {
		lt := g.Test()
		if err := lt.Validate(); err != nil {
			t.Fatal(err)
		}
		if lt.Groups != nil && lt.NumThreads() > 1 {
			for th := 1; th < lt.NumThreads(); th++ {
				if lt.GroupOf(th) != lt.GroupOf(0) {
					sawGroups = true
				}
			}
		}
	}
	if !sawGroups {
		t.Error("no multi-group random test generated")
	}
}
