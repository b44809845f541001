package synth

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
)

func TestOptionsValidate(t *testing.T) {
	valid := []Options{
		{MaxEvents: 4},
		{MaxEvents: 4, MinEvents: 2, Workers: 8},
		{MaxEvents: 1, MinEvents: 1},
		{MaxEvents: 5, MaxThreads: 2, MaxAddrs: 2, MaxDeps: 1, MaxRMWs: 1},
	}
	for _, o := range valid {
		if err := o.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", o, err)
		}
	}
	invalid := []Options{
		{},                             // zero MaxEvents
		{MaxEvents: -1},                // negative MaxEvents
		{MaxEvents: 3, MinEvents: -1},  // negative MinEvents
		{MaxEvents: 3, MinEvents: 4},   // MinEvents > MaxEvents
		{MaxEvents: 3, Workers: -2},    // negative Workers
		{MaxEvents: 3, MaxThreads: -1}, // negative MaxThreads
		{MaxEvents: 3, MaxAddrs: -1},   // negative MaxAddrs
		{MaxEvents: 3, MaxDeps: -1},    // negative MaxDeps
		{MaxEvents: 3, MaxRMWs: -1},    // negative MaxRMWs
		{MaxEvents: 3, ProgressInterval: -time.Second},
	}
	for _, o := range invalid {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", o)
		}
	}
}

func TestSynthesizeContextRejectsInvalidOptions(t *testing.T) {
	res, err := SynthesizeContext(context.Background(), memmodel.TSO(), Options{MaxEvents: -3})
	if err == nil || res != nil {
		t.Fatalf("SynthesizeContext with invalid options: res=%v err=%v", res, err)
	}
}

func TestSynthesizePanicsOnInvalidOptions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Synthesize with MaxEvents=0 did not panic")
		}
	}()
	Synthesize(memmodel.TSO(), Options{})
}

// fingerprint renders every suite of a result to a canonical string, so
// two results can be compared byte-for-byte (program text, witness
// outcome, and key of every entry, per suite, in sorted suite order).
func fingerprint(res *Result) string {
	var b strings.Builder
	suites := []*Suite{res.Union}
	for _, name := range res.AxiomNames() {
		suites = append(suites, res.PerAxiom[name])
	}
	for _, s := range suites {
		fmt.Fprintf(&b, "== %s/%s (%d)\n", s.Model, s.Axiom, len(s.Entries))
		for _, e := range s.Entries {
			fmt.Fprintf(&b, "%s| %s | %s\n", litmus.Format(e.Test), e.Exec.OutcomeString(), e.Key)
		}
	}
	return b.String()
}

// TestParallelByteIdenticalSuites checks the sharded parallel engine's
// central guarantee: Workers=1 and Workers=8 produce byte-identical
// sorted suites (same concrete representatives, not just the same keys)
// across models, at bounds 4-5.
func TestParallelByteIdenticalSuites(t *testing.T) {
	cases := []struct {
		model memmodel.Model
		bound int
	}{
		{memmodel.SC(), 5},
		{memmodel.TSO(), 5},
		{memmodel.Power(), 4},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s@%d", tc.model.Name(), tc.bound), func(t *testing.T) {
			seq := Synthesize(tc.model, Options{MaxEvents: tc.bound, Workers: 1, CountForbidden: tc.bound <= 4})
			par := Synthesize(tc.model, Options{MaxEvents: tc.bound, Workers: 8, CountForbidden: tc.bound <= 4})
			if fp1, fp8 := fingerprint(seq), fingerprint(par); fp1 != fp8 {
				t.Errorf("suites differ between Workers=1 and Workers=8:\n--- workers=1\n%s\n--- workers=8\n%s", fp1, fp8)
			}
			if seq.Stats.Programs != par.Stats.Programs ||
				seq.Stats.ProgramsRaw != par.Stats.ProgramsRaw ||
				seq.Stats.Executions != par.Stats.Executions ||
				seq.Stats.ForbiddenOutcomes != par.Stats.ForbiddenOutcomes {
				t.Errorf("stats differ: seq=%+v par=%+v", seq.Stats, par.Stats)
			}
			for name, res := range map[string]*Result{"seq": seq, "par": par} {
				if res.Stats.Entries != len(res.Union.Entries) {
					t.Errorf("%s: Stats.Entries = %d, union has %d", name, res.Stats.Entries, len(res.Union.Entries))
				}
			}
		})
	}
}

func TestSynthesizeContextCancellation(t *testing.T) {
	// A TSO bound-7 run takes far longer than the deadline; the engine
	// must return promptly with partial results and Interrupted set.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := SynthesizeContext(ctx, memmodel.TSO(), Options{MaxEvents: 7, Workers: 4})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("SynthesizeContext: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation not prompt: returned after %v", elapsed)
	}
	if !res.Stats.Interrupted {
		t.Error("Stats.Interrupted not set on cancelled run")
	}
	// The run had time to finish the small sizes: partial results are
	// real results.
	if res.Stats.ProgramsRaw == 0 {
		t.Error("no partial progress recorded before cancellation")
	}
}

func TestSynthesizeContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SynthesizeContext(ctx, memmodel.TSO(), Options{MaxEvents: 6})
	if err != nil {
		t.Fatalf("SynthesizeContext: %v", err)
	}
	if !res.Stats.Interrupted {
		t.Error("pre-cancelled context: Interrupted not set")
	}
}

func TestCompletedRunNotInterrupted(t *testing.T) {
	res, err := SynthesizeContext(context.Background(), memmodel.TSO(), Options{MaxEvents: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Interrupted {
		t.Error("uncancelled run reports Interrupted")
	}
}

func TestProgressEvents(t *testing.T) {
	var mu sync.Mutex
	var events []ProgressEvent
	res := Synthesize(memmodel.TSO(), Options{
		MaxEvents:        4,
		CountForbidden:   true,
		Workers:          4,
		ProgressInterval: time.Millisecond,
		Progress: func(ev ProgressEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	})
	mu.Lock()
	defer mu.Unlock()
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	// Phase transitions: a generate and an explore event per size 2..4,
	// and exactly one final done event.
	sawGenerate := map[int]bool{}
	sawExplore := map[int]bool{}
	done := 0
	for _, ev := range events {
		if ev.Model != "tso" {
			t.Fatalf("event model = %q", ev.Model)
		}
		switch ev.Phase {
		case PhaseGenerate:
			sawGenerate[ev.Size] = true
		case PhaseExplore:
			sawExplore[ev.Size] = true
		case PhaseDone:
			done++
		case PhaseTick:
		default:
			t.Fatalf("unknown phase %q", ev.Phase)
		}
	}
	for n := 2; n <= 4; n++ {
		if !sawGenerate[n] || !sawExplore[n] {
			t.Errorf("missing phase transitions for size %d (generate=%v explore=%v)",
				n, sawGenerate[n], sawExplore[n])
		}
	}
	if done != 1 {
		t.Errorf("done events = %d, want 1", done)
	}
	last := events[len(events)-1]
	if last.Phase != PhaseDone {
		t.Errorf("last event phase = %q, want done", last.Phase)
	}
	// The done event carries the final stats.
	if last.Stats != res.Stats {
		t.Errorf("done event stats %+v do not match the result's %+v", last.Stats, res.Stats)
	}
	if last.Entries != len(res.Union.Entries) {
		t.Errorf("done event entries = %d, union = %d", last.Entries, len(res.Union.Entries))
	}
	if res.Stats.Entries != len(res.Union.Entries) {
		t.Errorf("Stats.Entries = %d, union = %d", res.Stats.Entries, len(res.Union.Entries))
	}
	// Counters are monotone.
	for i := 1; i < len(events); i++ {
		a, b := events[i-1], events[i]
		if b.ProgramsRaw < a.ProgramsRaw || b.Programs < a.Programs ||
			b.Executions < a.Executions || b.ExecutionsFast < a.ExecutionsFast ||
			b.ForbiddenOutcomes < a.ForbiddenOutcomes || b.Entries < a.Entries {
			t.Errorf("counters regressed between events %d and %d: %+v -> %+v", i-1, i, a, b)
		}
	}
}

func TestStageTimings(t *testing.T) {
	res := Synthesize(memmodel.TSO(), Options{MaxEvents: 4})
	st := res.Stats.Stages
	if st.Generation <= 0 || st.Dedupe <= 0 || st.Execution <= 0 || st.Minimality <= 0 {
		t.Errorf("missing stage timings: %+v", st)
	}
	// Generation is generator work on the coordinating goroutine, without
	// backpressure waits, so it never exceeds the run's wall-clock time.
	if st.Generation > res.Stats.Elapsed {
		t.Errorf("Stages.Generation = %v exceeds Elapsed = %v", st.Generation, res.Stats.Elapsed)
	}
}

// power5Raw is the number of programs the power bound-5 generate phases
// emit (sizes 2 to 5).
const power5Raw = 289547

// TestCancelDuringGenerate cancels power@5 as soon as its size-5 generate
// phase starts, a stream of thousands of dedupe batches. The call must
// return promptly, interrupted, before the stream is exhausted, leave no
// engine goroutine behind, and hold exactly the size 2-4 results: the
// partial size-5 batches are neither stranded nor merged.
func TestCancelDuringGenerate(t *testing.T) {
	want := Synthesize(memmodel.Power(), Options{MaxEvents: 4, Workers: 2})

	// cancelOnSize5 returns options whose progress callback cancels the
	// returned context on the size-5 generate event.
	cancelOnSize5 := func() (context.Context, context.CancelFunc, Options) {
		ctx, cancel := context.WithCancel(context.Background())
		return ctx, cancel, Options{
			MaxEvents: 5,
			Workers:   2,
			Progress: func(ev ProgressEvent) {
				if ev.Phase == PhaseGenerate && ev.Size == 5 {
					cancel()
				}
			},
		}
	}
	check := func(t *testing.T, run func() Stats) {
		t.Helper()
		before := runtime.NumGoroutine()
		start := time.Now()
		st := run()
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("cancellation not prompt: returned after %v", elapsed)
		}
		if !st.Interrupted {
			t.Error("Stats.Interrupted not set")
		}
		if st.ProgramsRaw >= power5Raw {
			t.Errorf("ProgramsRaw = %d, want below the full %d", st.ProgramsRaw, power5Raw)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%d goroutines outlive the call (%d before it)", n-before, before)
		}
	}

	t.Run("SynthesizeContext", func(t *testing.T) {
		ctx, cancel, opts := cancelOnSize5()
		defer cancel()
		var res *Result
		check(t, func() Stats {
			var err error
			res, err = SynthesizeContext(ctx, memmodel.Power(), opts)
			if err != nil {
				t.Fatal(err)
			}
			return res.Stats
		})
		if got, wantFP := fingerprint(res), fingerprint(want); got != wantFP {
			t.Errorf("interrupted suites differ from the bound-4 suites:\n--- got\n%s\n--- want\n%s", got, wantFP)
		}
	})
	t.Run("SynthesizeShard", func(t *testing.T) {
		ctx, cancel, opts := cancelOnSize5()
		defer cancel()
		var res *ShardResult
		check(t, func() Stats {
			var err error
			res, err = SynthesizeShard(ctx, memmodel.Power(), opts, ShardSpec{Index: 0, Stride: 2})
			if err != nil {
				t.Fatal(err)
			}
			return res.Stats
		})
		for _, se := range res.Entries {
			if se.Entry.Size > 4 {
				t.Fatalf("shard entry of size %d merged from the interrupted size", se.Entry.Size)
			}
		}
	})
}

func TestGeneratorAbort(t *testing.T) {
	g := &generator{vocab: memmodel.TSO().Vocab(), opts: Options{MaxEvents: 4}.withDefaults()}
	count := 0
	completed := g.run(4, func(*litmus.Test) bool {
		count++
		return count < 10
	})
	if completed {
		t.Error("run reported completion despite abort")
	}
	if count != 10 {
		t.Errorf("emit called %d times after abort at 10", count)
	}
}
