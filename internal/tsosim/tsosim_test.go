package tsosim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
)

// axiomaticOutcomes projects the valid executions of t under the axiomatic
// TSO model onto the simulator's outcome space.
func axiomaticOutcomes(t *litmus.Test) map[string]Outcome {
	tso := memmodel.TSO()
	out := make(map[string]Outcome)
	exec.Enumerate(t, exec.EnumerateOptions{}, func(x *exec.Execution) bool {
		if !memmodel.Valid(tso, exec.NewView(x, exec.NoPerturb)) {
			return true
		}
		o := Outcome{
			ReadsFrom:  append([]int(nil), x.RF...),
			FinalWrite: make([]int, t.NumAddrs()),
		}
		for a := 0; a < t.NumAddrs(); a++ {
			o.FinalWrite[a] = -1
			if a < len(x.CO) && len(x.CO[a]) > 0 {
				o.FinalWrite[a] = x.CO[a][len(x.CO[a])-1]
			}
		}
		out[o.Key()] = o
		return true
	})
	return out
}

func sameOutcomes(a, b map[string]Outcome) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

func mustRun(t *testing.T, lt *litmus.Test) map[string]Outcome {
	t.Helper()
	out, err := Run(lt)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSBRelaxedOutcomeObservable(t *testing.T) {
	sb := litmus.New("SB", [][]litmus.Op{
		{litmus.W(0), litmus.R(1)},
		{litmus.W(1), litmus.R(0)},
	})
	out := mustRun(t, sb)
	// Both reads observing the initial value must be among the outcomes
	// (the store-buffering relaxation).
	found := false
	for _, o := range out {
		if o.ReadsFrom[1] == -1 && o.ReadsFrom[3] == -1 {
			found = true
		}
	}
	if !found {
		t.Error("SB relaxed outcome not observable on the machine")
	}
}

func TestSBMFencesForbidden(t *testing.T) {
	sb := litmus.New("SB+mfences", [][]litmus.Op{
		{litmus.W(0), litmus.F(litmus.FMFence), litmus.R(1)},
		{litmus.W(1), litmus.F(litmus.FMFence), litmus.R(0)},
	})
	out := mustRun(t, sb)
	for _, o := range out {
		if o.ReadsFrom[2] == -1 && o.ReadsFrom[5] == -1 {
			t.Error("SB+mfences relaxed outcome observable on the machine")
		}
	}
}

func TestForwarding(t *testing.T) {
	// A thread always sees its own buffered store.
	fwd := litmus.New("fwd", [][]litmus.Op{
		{litmus.W(0), litmus.R(0)},
	})
	out := mustRun(t, fwd)
	for _, o := range out {
		if o.ReadsFrom[1] != 0 {
			t.Errorf("read observed %d, want own store 0", o.ReadsFrom[1])
		}
	}
}

func TestRMWAtomic(t *testing.T) {
	// Two competing RMWs on one address: exactly one reads the initial
	// value and the other reads the first one's write.
	rmw2 := litmus.New("2rmw", [][]litmus.Op{
		{litmus.R(0), litmus.W(0)},
		{litmus.R(0), litmus.W(0)},
	}, litmus.WithRMW(0, 0), litmus.WithRMW(1, 0))
	out := mustRun(t, rmw2)
	for _, o := range out {
		r0, r1 := o.ReadsFrom[0], o.ReadsFrom[2]
		ok := (r0 == -1 && r1 == 1) || (r1 == -1 && r0 == 3)
		if !ok {
			t.Errorf("non-atomic RMW interleaving: r0=%d r1=%d", r0, r1)
		}
	}
	if len(out) != 2 {
		t.Errorf("expected exactly 2 outcomes, got %d", len(out))
	}
}

func TestRejectsNonTSOVocabulary(t *testing.T) {
	bad := litmus.New("bad", [][]litmus.Op{{litmus.Racq(0)}})
	if _, err := Run(bad); err == nil {
		t.Error("acquire load accepted")
	}
	badF := litmus.New("badF", [][]litmus.Op{{litmus.W(0), litmus.F(litmus.FSync), litmus.W(1)}})
	if _, err := Run(badF); err == nil {
		t.Error("sync fence accepted")
	}
}

// TestEquivalenceClassics: machine and axiomatic model agree on the
// classic tests.
func TestEquivalenceClassics(t *testing.T) {
	mf := litmus.F(litmus.FMFence)
	tests := []*litmus.Test{
		litmus.New("MP", [][]litmus.Op{{litmus.W(0), litmus.W(1)}, {litmus.R(1), litmus.R(0)}}),
		litmus.New("SB", [][]litmus.Op{{litmus.W(0), litmus.R(1)}, {litmus.W(1), litmus.R(0)}}),
		litmus.New("LB", [][]litmus.Op{{litmus.R(0), litmus.W(1)}, {litmus.R(1), litmus.W(0)}}),
		litmus.New("SB+mfences", [][]litmus.Op{
			{litmus.W(0), mf, litmus.R(1)},
			{litmus.W(1), mf, litmus.R(0)},
		}),
		litmus.New("IRIW", [][]litmus.Op{
			{litmus.W(0)}, {litmus.W(1)},
			{litmus.R(0), litmus.R(1)},
			{litmus.R(1), litmus.R(0)},
		}),
		litmus.New("n5", [][]litmus.Op{
			{litmus.W(0), litmus.R(0)},
			{litmus.W(0), litmus.R(0)},
		}),
		litmus.New("RMW+W", [][]litmus.Op{
			{litmus.R(0), litmus.W(0)},
			{litmus.W(0)},
		}, litmus.WithRMW(0, 0)),
		litmus.New("2+2W", [][]litmus.Op{
			{litmus.W(0), litmus.W(1)},
			{litmus.W(1), litmus.W(0)},
		}),
	}
	for _, lt := range tests {
		op := mustRun(t, lt)
		ax := axiomaticOutcomes(lt)
		if !sameOutcomes(op, ax) {
			t.Errorf("%s: machine %d outcomes, axiomatic %d outcomes", lt.Name, len(op), len(ax))
			for k := range op {
				if _, ok := ax[k]; !ok {
					t.Logf("  machine-only: %s", k)
				}
			}
			for k := range ax {
				if _, ok := op[k]; !ok {
					t.Logf("  axiomatic-only: %s", k)
				}
			}
		}
	}
}

// randomTSOTest draws a random small test over TSO's vocabulary.
func randomTSOTest(rng *rand.Rand) *litmus.Test {
	numThreads := 1 + rng.Intn(3)
	var threads [][]litmus.Op
	remaining := 6
	var rmwOpts []litmus.Option
	for th := 0; th < numThreads; th++ {
		size := 1 + rng.Intn(3)
		if size > remaining {
			size = remaining
		}
		remaining -= size
		var ops []litmus.Op
		for i := 0; i < size; i++ {
			addr := rng.Intn(2)
			switch rng.Intn(8) {
			case 0, 1, 2:
				ops = append(ops, litmus.R(addr))
			case 3, 4, 5:
				ops = append(ops, litmus.W(addr))
			case 6:
				if i > 0 && i < size-1 {
					ops = append(ops, litmus.F(litmus.FMFence))
				} else {
					ops = append(ops, litmus.R(addr))
				}
			case 7:
				if i+1 < size {
					ops = append(ops, litmus.R(addr), litmus.W(addr))
					rmwOpts = append(rmwOpts, litmus.WithRMW(th, i))
					i++
				} else {
					ops = append(ops, litmus.W(addr))
				}
			}
		}
		threads = append(threads, ops)
	}
	// Remap addresses to be contiguous.
	remap := map[int]int{}
	for th := range threads {
		for i, op := range threads[th] {
			if op.IsFence() {
				continue
			}
			na, ok := remap[op.Addr()]
			if !ok {
				na = len(remap)
				remap[op.Addr()] = na
			}
			threads[th][i] = op.WithAddr(na)
		}
	}
	return litmus.New("rnd", threads, rmwOpts...)
}

// rmwThenLoad reports whether some thread of t loads after an RMW in
// program order: the programs on which the machine may allow fewer
// outcomes than the axiomatic model (see the package comment).
func rmwThenLoad(t *litmus.Test) bool {
	for _, p := range t.RMW {
		rmw := t.Events[p[0]]
		for _, e := range t.Events {
			if e.Thread == rmw.Thread && e.Index > rmw.Index+1 && e.Kind == litmus.KRead {
				return true
			}
		}
	}
	return false
}

// checkAgainstAxiomatic runs t on the machine and reports a machine
// outcome the axiomatic TSO model forbids, or, unless a thread loads after
// an RMW, an axiomatic outcome the machine cannot produce.
func checkAgainstAxiomatic(t *litmus.Test) error {
	op, err := Run(t)
	if err != nil {
		return err
	}
	ax := axiomaticOutcomes(t)
	for k := range op {
		if _, ok := ax[k]; !ok {
			return fmt.Errorf("%v: machine-only outcome %s (machine=%d axiomatic=%d)", t, k, len(op), len(ax))
		}
	}
	if !rmwThenLoad(t) && len(op) != len(ax) {
		return fmt.Errorf("%v: machine=%d axiomatic=%d outcomes", t, len(op), len(ax))
	}
	return nil
}

// TestQuickEquivalence is the headline cross-validation: on random tests,
// every outcome of the operational x86-TSO machine is allowed by the
// axiomatic TSO model, and the two outcome sets are equal unless a thread
// loads after an RMW (TestRMWThenLoadStrictInclusion). A failure logs the
// program's seed, which randomTSOTest replays.
func TestQuickEquivalence(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("quick seed %d", seed)
	f := func(progSeed int64) bool {
		lt := randomTSOTest(rand.New(rand.NewSource(progSeed)))
		if err := checkAgainstAxiomatic(lt); err != nil {
			t.Logf("program seed %d: %v", progSeed, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(seed))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestRMWThenLoadStrictInclusion pins the program random seed
// 6990079075394620580 draws, on which the machine allows 7 outcomes and
// the axiomatic model 8. The extra outcome has T1's last load read the
// initial x after its RMW on y, while T0 reads the new x and then the
// initial y: the RMW's write to y must then reach memory after T1's load
// of x. The machine's locked RMW (as on x86) writes to memory before any
// later load runs, which forbids it; paper Fig. 4's TSO, whose ppo drops
// every write→read pair, allows it.
func TestRMWThenLoadStrictInclusion(t *testing.T) {
	lt := litmus.New("rmw-then-load", [][]litmus.Op{
		{litmus.R(0), litmus.R(1)},              // 0: Ld x  1: Ld y
		{litmus.R(1), litmus.W(1), litmus.R(0)}, // 2: Ld y  3: St y  4: Ld x
		{litmus.W(0)},                           // 5: St x
	}, litmus.WithRMW(1, 0))
	if !rmwThenLoad(lt) {
		t.Fatal("rmwThenLoad does not recognise the pinned program")
	}
	if err := checkAgainstAxiomatic(lt); err != nil {
		t.Fatal(err)
	}
	op, ax := mustRun(t, lt), axiomaticOutcomes(lt)
	if len(op) != 7 || len(ax) != 8 {
		t.Fatalf("machine=%d axiomatic=%d outcomes, want 7 and 8", len(op), len(ax))
	}
	for k, o := range ax {
		if _, ok := op[k]; ok {
			continue
		}
		if o.ReadsFrom[0] != 5 || o.ReadsFrom[1] != -1 || o.ReadsFrom[4] != -1 {
			t.Errorf("axiomatic-only outcome %s, want r0=St x, r1=init, r4=init", k)
		}
	}
}
