package harness

import (
	"context"
	"reflect"
	"testing"

	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/suites"
	"memsynth/internal/synth"
	"memsynth/internal/tsosim"
)

func correctMachine(t *litmus.Test) (map[string]tsosim.Outcome, error) {
	return tsosim.Run(t)
}

func faultyMachine(f tsosim.Fault) Machine {
	return func(t *litmus.Test) (map[string]tsosim.Outcome, error) {
		return tsosim.RunFaulty(t, f)
	}
}

// synthesizedTests returns the programs of the synthesized TSO union suite
// up to the bound.
func synthesizedTests(bound int) []*litmus.Test {
	res := synth.Synthesize(memmodel.TSO(), synth.Options{MaxEvents: bound})
	var out []*litmus.Test
	for _, e := range res.Union.Entries {
		out = append(out, e.Test)
	}
	return out
}

func owensTests() []*litmus.Test {
	var out []*litmus.Test
	for _, bt := range suites.Owens() {
		out = append(out, bt.Test)
	}
	return out
}

func TestCorrectMachinePassesEverything(t *testing.T) {
	tso := memmodel.TSO()
	tests := append(synthesizedTests(5), owensTests()...)
	report := RunSuite(tso, tests, correctMachine)
	if report.Detected() {
		t.Fatalf("correct machine flagged: %v", report.Violations[0])
	}
	if report.TestsRun == 0 {
		t.Fatal("no tests ran")
	}
}

// TestSynthesizedSuiteDetectsEveryFault is the paper's value proposition:
// the comprehensive minimal suite exposes every seeded implementation bug.
func TestSynthesizedSuiteDetectsEveryFault(t *testing.T) {
	tso := memmodel.TSO()
	// Bound 6 covers SB+mfences (needed for the missing-fence bug).
	tests := synthesizedTests(6)
	rows := DetectionMatrix(tso, tests)
	for _, row := range rows {
		if row.Fault == tsosim.FaultNone {
			if row.Detected {
				t.Fatalf("false positive on the correct machine: %v", row.FirstTest)
			}
			continue
		}
		if !row.Detected {
			t.Errorf("fault %v NOT detected by the synthesized suite", row.Fault)
		} else {
			t.Logf("fault %-16v detected by %v", row.Fault, row.FirstTest)
		}
	}
}

// TestPerFaultWitnesses pins the expected detector per fault class.
func TestPerFaultWitnesses(t *testing.T) {
	tso := memmodel.TSO()
	mf := litmus.F(litmus.FMFence)

	cases := []struct {
		fault tsosim.Fault
		test  *litmus.Test
	}{
		{tsosim.FaultIgnoreFence, litmus.New("SB+mfences", [][]litmus.Op{
			{litmus.W(0), mf, litmus.R(1)},
			{litmus.W(1), mf, litmus.R(0)},
		})},
		{tsosim.FaultNonFIFOBuffer, litmus.New("MP", [][]litmus.Op{
			{litmus.W(0), litmus.W(1)},
			{litmus.R(1), litmus.R(0)},
		})},
		{tsosim.FaultNoForwarding, litmus.New("CoWR", [][]litmus.Op{
			{litmus.W(0), litmus.R(0)},
		})},
		{tsosim.FaultUnlockedRMW, litmus.New("RMW+W", [][]litmus.Op{
			{litmus.R(0), litmus.W(0)},
			{litmus.W(0)},
		}, litmus.WithRMW(0, 0))},
		{tsosim.FaultReadReorder, litmus.New("MP", [][]litmus.Op{
			{litmus.W(0), litmus.W(1)},
			{litmus.R(1), litmus.R(0)},
		})},
	}
	for _, c := range cases {
		violations, err := Check(tso, c.test, faultyMachine(c.fault))
		if err != nil {
			t.Fatalf("%v: %v", c.fault, err)
		}
		if len(violations) == 0 {
			t.Errorf("fault %v not exposed by %s", c.fault, c.test.Name)
		}
		// The same test on the correct machine is clean.
		clean, err := Check(tso, c.test, correctMachine)
		if err != nil {
			t.Fatal(err)
		}
		if len(clean) != 0 {
			t.Errorf("%s: false positive on correct machine: %v", c.test.Name, clean[0])
		}
	}
}

// TestFaultDetectionSpecificity: each fault is NOT detected by tests that
// do not exercise it, demonstrating that comprehensive coverage (not just a
// few classics) is what catches all bug classes.
func TestFaultDetectionSpecificity(t *testing.T) {
	tso := memmodel.TSO()
	sb := litmus.New("SB", [][]litmus.Op{
		{litmus.W(0), litmus.R(1)},
		{litmus.W(1), litmus.R(0)},
	})
	// Plain SB cannot expose the fence bug (it has no fence).
	violations, err := Check(tso, sb, faultyMachine(tsosim.FaultIgnoreFence))
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Errorf("plain SB claims to detect the fence fault: %v", violations[0])
	}
	// MP alone cannot expose the unlocked-RMW bug (it has no RMW).
	mp := litmus.New("MP", [][]litmus.Op{
		{litmus.W(0), litmus.W(1)},
		{litmus.R(1), litmus.R(0)},
	})
	violations, err = Check(tso, mp, faultyMachine(tsosim.FaultUnlockedRMW))
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Errorf("MP claims to detect the RMW fault: %v", violations[0])
	}
}

// TestSkippedVocabulary: suites for richer models skip cleanly on the TSO
// machine.
func TestSkippedVocabulary(t *testing.T) {
	scc := memmodel.SCC()
	relacq := litmus.New("MP+ra", [][]litmus.Op{
		{litmus.W(0), litmus.Wrel(1)},
		{litmus.Racq(1), litmus.R(0)},
	})
	report := RunSuite(scc, []*litmus.Test{relacq}, correctMachine)
	if report.Skipped != 1 || report.TestsRun != 0 {
		t.Errorf("report = %+v, want 1 skipped", report)
	}
}

func TestRunSuiteContextCancellation(t *testing.T) {
	tso := memmodel.TSO()
	tests := synthesizedTests(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	report := RunSuiteContext(ctx, tso, tests, correctMachine, nil)
	if !report.Interrupted {
		t.Error("cancelled RunSuiteContext did not set Interrupted")
	}
	if report.TestsRun != 0 {
		t.Errorf("cancelled run executed %d tests", report.TestsRun)
	}

	// An uncancelled context run matches the blocking API and streams
	// monotone progress.
	var progress []RunProgress
	report = RunSuiteContext(context.Background(), tso, tests, correctMachine, func(p RunProgress) {
		progress = append(progress, p)
	})
	blocking := RunSuite(tso, tests, correctMachine)
	if report.Interrupted {
		t.Error("complete run reports Interrupted")
	}
	if report.TestsRun != blocking.TestsRun || len(report.Violations) != len(blocking.Violations) {
		t.Errorf("context report %+v differs from blocking %+v", report, blocking)
	}
	if len(progress) != report.TestsRun {
		t.Errorf("progress callbacks = %d, tests run = %d", len(progress), report.TestsRun)
	}
	for i, p := range progress {
		if p.TestsRun != i+1 || p.Total != len(tests) {
			t.Errorf("progress[%d] = %+v", i, p)
			break
		}
	}
}

func TestDetectionMatrixContextCancellation(t *testing.T) {
	tso := memmodel.TSO()
	tests := synthesizedTests(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := DetectionMatrixContext(ctx, tso, tests)
	if err == nil {
		t.Error("cancelled DetectionMatrixContext returned nil error")
	}
	if len(rows) != 0 {
		t.Errorf("cancelled matrix returned %d rows", len(rows))
	}
}

// TestAllowedKeysQuantifySCOrders: on scc's SB with sc fences,
// allowedKeys (one enumeration, each execution valid under some order of
// memmodel.Vocab.SCOrders) must return exactly the union of allowed
// outcomes over every (execution, sc order) pair.
func TestAllowedKeysQuantifySCOrders(t *testing.T) {
	scc := memmodel.SCC()
	lt := litmus.New("SB+scfences", [][]litmus.Op{
		{litmus.W(0), litmus.F(litmus.FSC), litmus.R(1)},
		{litmus.W(1), litmus.F(litmus.FSC), litmus.R(0)},
	})
	orders := exec.SCOrders(lt)
	if len(orders) != 2 {
		t.Fatalf("SB+scfences has %d sc orders, want 2", len(orders))
	}
	want := make(map[string]bool)
	exec.Enumerate(lt, exec.EnumerateOptions{}, func(x *exec.Execution) bool {
		for _, sc := range orders {
			x.SC = sc
			if memmodel.Valid(scc, exec.NewView(x, exec.NoPerturb)) {
				o := tsosim.Outcome{ReadsFrom: append([]int(nil), x.RF...), FinalWrite: make([]int, lt.NumAddrs())}
				for a := range o.FinalWrite {
					o.FinalWrite[a] = x.CO[a][len(x.CO[a])-1]
				}
				want[o.Key()] = true
			}
		}
		return true
	})
	got := allowedKeys(scc, lt)
	if len(want) == 0 || len(want) == exec.CountExecutions(lt) {
		t.Fatalf("the union over sc orders allows %d outcomes: the program does not separate allowed from forbidden", len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("allowedKeys = %v, want the union over sc orders %v", got, want)
	}
}
