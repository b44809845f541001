package satgen

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"memsynth/internal/cat"
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
)

// execKey identifies an execution by its reads-from and coherence orders.
func execKey(x *exec.Execution) string { return fmt.Sprint(x.RF, x.CO) }

// satExecutions collects the executions of lt that g's encoding finds
// valid (or forbidden).
func satExecutions(t *testing.T, g *Guide, lt *litmus.Test, valid bool) map[string]bool {
	t.Helper()
	enc, err := g.encodeVerdict(lt, valid)
	if err != nil {
		t.Fatal(err)
	}
	xs, ok := enc.solveAll()
	if !ok {
		t.Fatalf("%s: SAT enumeration failed", lt.Name)
	}
	keys := make(map[string]bool, len(xs))
	for _, x := range xs {
		keys[execKey(x)] = true
	}
	if len(keys) != len(xs) {
		t.Errorf("%s: %d SAT models extract to %d executions", lt.Name, len(xs), len(keys))
	}
	return keys
}

// explicitExecutions collects the same space from exec.Enumerate and m's
// Valid.
func explicitExecutions(m memmodel.Model, lt *litmus.Test, valid bool) map[string]bool {
	keys := map[string]bool{}
	exec.Enumerate(lt, exec.EnumerateOptions{}, func(x *exec.Execution) bool {
		if memmodel.Valid(m, exec.NewView(x, exec.NoPerturb)) == valid {
			keys[execKey(x)] = true
		}
		return true
	})
	return keys
}

func sameKeys(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// requireSameExecutions checks that the guide compiled from the cat
// transcript and the builtin agree exactly on lt's valid and forbidden
// execution sets.
func requireSameExecutions(t *testing.T, g *Guide, m memmodel.Model, lt *litmus.Test) {
	t.Helper()
	for _, valid := range []bool{true, false} {
		satKeys := satExecutions(t, g, lt, valid)
		expKeys := explicitExecutions(m, lt, valid)
		if !sameKeys(satKeys, expKeys) {
			t.Errorf("%s %s (valid=%v): SAT %d executions, enumerator %d",
				m.Name(), lt.Name, valid, len(satKeys), len(expKeys))
		}
	}
}

// TestTSOEncodingMatchesEnumerator is the Alloy-pipeline cross-validation:
// the SAT encoding of tso.cat and the explicit enumerator under the TSO
// builtin agree exactly on the valid and forbidden execution sets of
// classic tests.
func TestTSOEncodingMatchesEnumerator(t *testing.T) {
	g := guideFor(t, exampleModel(t, "tso"))
	mf := litmus.F(litmus.FMFence)
	for _, lt := range []*litmus.Test{
		litmus.New("MP", [][]litmus.Op{{litmus.W(0), litmus.W(1)}, {litmus.R(1), litmus.R(0)}}),
		litmus.New("SB", [][]litmus.Op{{litmus.W(0), litmus.R(1)}, {litmus.W(1), litmus.R(0)}}),
		litmus.New("SB+mfences", [][]litmus.Op{
			{litmus.W(0), mf, litmus.R(1)},
			{litmus.W(1), mf, litmus.R(0)},
		}),
		litmus.New("CoRW", [][]litmus.Op{{litmus.R(0), litmus.W(0)}, {litmus.W(0)}}),
		litmus.New("RMW+W", [][]litmus.Op{
			{litmus.R(0), litmus.W(0)},
			{litmus.W(0)},
		}, litmus.WithRMW(0, 0)),
	} {
		requireSameExecutions(t, g, memmodel.TSO(), lt)
	}
}

// TestSCEncodingMatchesEnumerator cross-validates sc.cat's encoding
// against the SC builtin.
func TestSCEncodingMatchesEnumerator(t *testing.T) {
	g := guideFor(t, exampleModel(t, "sc"))
	for _, lt := range []*litmus.Test{
		litmus.New("SB", [][]litmus.Op{{litmus.W(0), litmus.R(1)}, {litmus.W(1), litmus.R(0)}}),
		litmus.New("MP", [][]litmus.Op{{litmus.W(0), litmus.W(1)}, {litmus.R(1), litmus.R(0)}}),
		litmus.New("RMW+W", [][]litmus.Op{
			{litmus.R(0), litmus.W(0)},
			{litmus.W(0)},
		}, litmus.WithRMW(0, 0)),
	} {
		requireSameExecutions(t, g, memmodel.SC(), lt)
	}
}

// TestQuickTSOEncodingEquivalence extends the TSO cross-validation of the
// valid execution sets to random small tests.
func TestQuickTSOEncodingEquivalence(t *testing.T) {
	g := guideFor(t, exampleModel(t, "tso"))
	tso := memmodel.TSO()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numThreads := 1 + rng.Intn(2)
		var threads [][]litmus.Op
		remap := map[int]int{}
		for th := 0; th < numThreads; th++ {
			size := 1 + rng.Intn(3)
			var ops []litmus.Op
			for i := 0; i < size; i++ {
				addr := rng.Intn(2)
				na, ok := remap[addr]
				if !ok {
					na = len(remap)
					remap[addr] = na
				}
				if rng.Intn(2) == 0 {
					ops = append(ops, litmus.R(na))
				} else {
					ops = append(ops, litmus.W(na))
				}
			}
			threads = append(threads, ops)
		}
		lt := litmus.New("rnd", threads)
		return sameKeys(satExecutions(t, g, lt, true), explicitExecutions(tso, lt, true))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The everyOperator definition exercises every cat operator and every
// family of predefined names the compiler maps, beyond what sc.cat and
// tso.cat use. Each axiom is built so that mis-compiling one construct
// changes its verdict on one of the cross-validation programs; some hold
// on every execution.
const everyOperatorLets = `let com = rf | co | fr
let ppo = po \ ((M \ R) * (M & R))
let fence = po ; [F.mfence] ; po
`

const everyOperatorDecls = `ops R W F.mfence
rmw R W
relax DRMW
`

var everyOperatorAxioms = []string{
	`acyclic (po-loc ; id) | com as coherence`,
	`empty ((fre ; coe) & rmw) | scord | 0 as rmw_atomicity`,
	`irreflexive (rfe | co | fr | ppo | fence)+ as causality`,
	`irreflexive fr ; (rf | po-loc)* as corr`,
	`irreflexive fr ; (rf | po-loc)? as cowr`,
	`irreflexive rf^-1 ; po ; fr^-1 as coww`,
	`irreflexive co | co^-1 as antisymmetry`,
	`empty ((rfi | coi | fri) \ int) | ((rfe | coe | fre) \ ext) | ((rf | co | fr) \ (_ * (R | W))) as split`,
	`empty (id \ po-loc*) | (id \ po-loc?) | ([R] ; [W]) as identities`,
}

// everyOperatorModel compiles the everyOperator definition with the given
// axioms.
func everyOperatorModel(t *testing.T, axioms ...string) *cat.Model {
	t.Helper()
	src := "model everyop\n" + everyOperatorLets + strings.Join(axioms, "\n") + "\n" + everyOperatorDecls
	m, err := cat.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEveryOperatorEncodingMatchesEnumerator cross-validates each
// everyOperator axiom on its own against its cat evaluation.
func TestEveryOperatorEncodingMatchesEnumerator(t *testing.T) {
	mf := litmus.F(litmus.FMFence)
	programs := []*litmus.Test{
		litmus.New("MP", [][]litmus.Op{{litmus.W(0), litmus.W(1)}, {litmus.R(1), litmus.R(0)}}),
		litmus.New("SB+mfences", [][]litmus.Op{
			{litmus.W(0), mf, litmus.R(1)},
			{litmus.W(1), mf, litmus.R(0)},
		}),
		litmus.New("CoRR", [][]litmus.Op{{litmus.R(0), litmus.R(0)}, {litmus.W(0)}}),
		litmus.New("CoWW+R", [][]litmus.Op{{litmus.W(0), litmus.W(0)}, {litmus.R(0)}}),
		litmus.New("CoWWW", [][]litmus.Op{{litmus.W(0), litmus.W(0)}, {litmus.W(0)}}),
		litmus.New("RMW+W", [][]litmus.Op{
			{litmus.R(0), litmus.W(0)},
			{litmus.W(0)},
		}, litmus.WithRMW(0, 0)),
	}
	for _, ax := range everyOperatorAxioms {
		m := everyOperatorModel(t, ax)
		g := guideFor(t, m)
		for _, lt := range programs {
			requireSameExecutions(t, g, m, lt)
		}
	}
}

// TestDifferentialEveryOperator replays the everyOperator model through
// its guide against its own engine run, covering the per-view compilation
// under every relaxation.
func TestDifferentialEveryOperator(t *testing.T) {
	m := everyOperatorModel(t, everyOperatorAxioms...)
	requireIdentical(t, m, guideFor(t, m), 4)
}

// everyRelaxation is a definition with every relaxation tag, so its replay
// covers the applications that change only static relations (demoted
// orders, fences and scopes, removed dependencies) besides instruction
// removal and RMW decomposition.
const everyRelaxation = `model everyrelax
let com = rf | co | fr
let ppo = dep | ([R.acq] ; po) | (po ; [W.rel])
let fences = (po ; [F.sync] ; po) | ((po ; [F.lwsync] ; po) \ (W * R))
acyclic po-loc | com as sc_per_loc
empty (fre ; coe) & rmw as rmw_atomicity
acyclic (rfe | co | fr | ppo | fences) & scope-compat as causality
acyclic dep | rf as no_thin_air
ops R W R.acq@wg R.acq@sys W.rel F.sync F.lwsync
rmw R W
deps addr data ctrl
scopes wg sys
relax DRMW RD DMO DF DS
demote R.acq -> R.rlx
demote W.rel -> W.rlx
demote F.sync -> F.lwsync
demote @sys -> @wg
`

// TestDifferentialEveryRelaxation replays everyRelaxation through its
// guide against its own engine run.
func TestDifferentialEveryRelaxation(t *testing.T) {
	m, err := cat.Compile(everyRelaxation)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, m, guideFor(t, m), 3)
}
