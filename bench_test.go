// Benchmarks regenerating the paper's evaluation (§6). Each table/figure
// has a bench that reports the figure's series as benchmark metrics, so
// `go test -bench=. -benchmem` reproduces the evaluation data:
//
//   - Fig. 13a/b/c (TSO counts per source, per axiom, runtime): BenchmarkFig13_TSO
//   - Fig. 16a/b/c (Power): BenchmarkFig16_Power
//   - Fig. 20a/b (SCC): BenchmarkFig20_SCC
//   - §6.4 (C/C++): BenchmarkC11 (plus BenchmarkHSA for the scoped model)
//   - Table 2 (relaxation applicability): BenchmarkTable2_Applicability
//   - Table 4 (Owens comparison): BenchmarkTable4_OwensVsSynthesized
//   - §2.1 baseline (diy): BenchmarkDiyBaseline
//
// The bench wall-clock time per bound is the paper's runtime series (the
// super-exponential growth of Figs. 13c/16c/20b). Paper-vs-measured values
// are recorded in EXPERIMENTS.md.
package memsynth_test

import (
	"fmt"
	"runtime"
	"testing"

	"memsynth"
)

// synthBench runs one synthesis per iteration and reports the suite sizes
// as metrics.
func synthBench(b *testing.B, modelName string, opts memsynth.Options) {
	model, err := memsynth.ModelByName(modelName)
	if err != nil {
		b.Fatal(err)
	}
	var res *memsynth.Result
	for i := 0; i < b.N; i++ {
		res = memsynth.Synthesize(model, opts)
	}
	b.ReportMetric(float64(len(res.Union.Entries)), "union-tests")
	for _, name := range res.AxiomNames() {
		b.ReportMetric(float64(len(res.PerAxiom[name].Entries)), name+"-tests")
	}
	b.ReportMetric(float64(res.Stats.Programs), "programs")
	b.ReportMetric(float64(res.Stats.Executions), "executions")
	if opts.CountForbidden {
		b.ReportMetric(float64(res.Stats.ForbiddenOutcomes), "forbidden-outcomes")
	}
}

// BenchmarkFig13_TSO regenerates Fig. 13: per-bound suite sizes for each
// TSO axiom and the union (13b), the all-forbidden-outcomes count vs the
// 15 forbidden Owens tests (13a), and the runtime (13c = ns/op).
func BenchmarkFig13_TSO(b *testing.B) {
	for bound := 2; bound <= 6; bound++ {
		b.Run(fmt.Sprintf("bound=%d", bound), func(b *testing.B) {
			synthBench(b, "tso", memsynth.Options{
				MaxEvents:      bound,
				CountForbidden: bound <= 4,
			})
			b.ReportMetric(15, "owens-forbidden-tests")
		})
	}
}

// BenchmarkFig16_Power regenerates Fig. 16: Power per-axiom suite sizes and
// runtime per bound. The per-axiom spread (no_thin_air dominating due to
// dependency variety) and the much larger constant factor than TSO are the
// paper's headline observations.
func BenchmarkFig16_Power(b *testing.B) {
	for bound := 2; bound <= 5; bound++ {
		b.Run(fmt.Sprintf("bound=%d", bound), func(b *testing.B) {
			synthBench(b, "power", memsynth.Options{
				MaxEvents:      bound,
				CountForbidden: bound <= 3,
			})
			b.ReportMetric(float64(len(cambridgeForbiddenCount())), "cambridge-forbidden-tests")
		})
	}
}

func cambridgeForbiddenCount() []memsynth.BaselineTest {
	var out []memsynth.BaselineTest
	for _, bt := range memsynth.CambridgeSuite() {
		if bt.Forbidden != nil {
			out = append(out, bt)
		}
	}
	return out
}

// BenchmarkFig20_SCC regenerates Fig. 20: SCC per-axiom suite sizes and
// runtime per bound (the paper's streamlined model synthesizes faster than
// Power at equal bounds while offering more synchronization vocabulary).
func BenchmarkFig20_SCC(b *testing.B) {
	for bound := 2; bound <= 4; bound++ {
		b.Run(fmt.Sprintf("bound=%d", bound), func(b *testing.B) {
			synthBench(b, "scc", memsynth.Options{
				MaxEvents:      bound,
				CountForbidden: bound <= 3,
			})
		})
	}
}

// BenchmarkC11 regenerates the §6.4 C/C++ study at laptop bounds.
func BenchmarkC11(b *testing.B) {
	for bound := 2; bound <= 4; bound++ {
		b.Run(fmt.Sprintf("bound=%d", bound), func(b *testing.B) {
			synthBench(b, "c11", memsynth.Options{MaxEvents: bound})
		})
	}
}

// BenchmarkHSA covers the scoped model (the paper's HSA/OpenCL rows of
// Table 2), including the Demote Scope relaxation.
func BenchmarkHSA(b *testing.B) {
	b.Run("bound=3", func(b *testing.B) {
		synthBench(b, "hsa", memsynth.Options{MaxEvents: 3})
	})
	b.Run("bound=4/threads=2", func(b *testing.B) {
		synthBench(b, "hsa", memsynth.Options{MaxEvents: 4, MaxThreads: 2})
	})
}

// BenchmarkSC covers the simplest model end of Table 2.
func BenchmarkSC(b *testing.B) {
	for bound := 2; bound <= 5; bound++ {
		b.Run(fmt.Sprintf("bound=%d", bound), func(b *testing.B) {
			synthBench(b, "sc", memsynth.Options{MaxEvents: bound})
		})
	}
}

// BenchmarkARMv7 covers the ARMv7 variant of the Power formulation.
func BenchmarkARMv7(b *testing.B) {
	for bound := 2; bound <= 4; bound++ {
		b.Run(fmt.Sprintf("bound=%d", bound), func(b *testing.B) {
			synthBench(b, "armv7", memsynth.Options{MaxEvents: bound})
		})
	}
}

// BenchmarkTable2_Applicability regenerates Table 2 (which relaxations
// apply to which model).
func BenchmarkTable2_Applicability(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = 0
		for _, m := range memsynth.Models() {
			rows += len(memsynth.RelaxationTags(m))
		}
	}
	b.ReportMetric(float64(rows), "applicable-relaxation-cells")
}

// BenchmarkTable4_OwensVsSynthesized regenerates Table 4: classify every
// forbidden Owens test as minimal ("Both") or containing a synthesized
// minimal subtest ("Owens only").
func BenchmarkTable4_OwensVsSynthesized(b *testing.B) {
	tso, err := memsynth.ModelByName("tso")
	if err != nil {
		b.Fatal(err)
	}
	var both, containsMinimal, unresolved int
	for i := 0; i < b.N; i++ {
		res := memsynth.Synthesize(tso, memsynth.Options{MaxEvents: 6})
		both, containsMinimal, unresolved = 0, 0, 0
		for _, bt := range memsynth.OwensSuite() {
			if bt.Forbidden == nil {
				continue
			}
			if len(memsynth.CheckMinimal(tso, bt.Forbidden).MinimalFor()) > 0 {
				both++
				continue
			}
			found := false
			for _, e := range res.Union.Entries {
				if memsynth.Contains(bt.Forbidden, e.Exec) {
					found = true
					break
				}
			}
			if found {
				containsMinimal++
			} else {
				unresolved++
			}
		}
	}
	b.ReportMetric(float64(both), "owens-minimal")
	b.ReportMetric(float64(containsMinimal), "owens-contains-minimal")
	b.ReportMetric(float64(unresolved), "owens-unresolved")
}

// BenchmarkDiyBaseline contrasts diy-style cycle generation (§2.1) with
// synthesis: the diy suite contains redundant (non-minimal) tests that the
// minimality criterion filters.
func BenchmarkDiyBaseline(b *testing.B) {
	tso, err := memsynth.ModelByName("tso")
	if err != nil {
		b.Fatal(err)
	}
	var distinct, forbidden, minimalCount int
	for i := 0; i < b.N; i++ {
		witnesses := memsynth.DiyGenerate(memsynth.DiyTSOAlphabet(), 3, 4)
		seen := map[string]bool{}
		distinct, forbidden, minimalCount = 0, 0, 0
		for _, x := range witnesses {
			key := memsynth.CanonicalKey(x)
			if seen[key] {
				continue
			}
			seen[key] = true
			distinct++
			v := memsynth.CheckMinimal(tso, x)
			if len(v.ViolatedAxioms) > 0 {
				forbidden++
				if len(v.MinimalFor()) > 0 {
					minimalCount++
				}
			}
		}
	}
	b.ReportMetric(float64(distinct), "diy-distinct")
	b.ReportMetric(float64(forbidden), "diy-forbidden")
	b.ReportMetric(float64(minimalCount), "diy-minimal")
}

// BenchmarkFaultDetection runs the synthesized suite against the five
// fault-injected x86-TSO machines (the §1 motivation, end to end) and
// reports how many bugs the suite catches.
func BenchmarkFaultDetection(b *testing.B) {
	tso, err := memsynth.ModelByName("tso")
	if err != nil {
		b.Fatal(err)
	}
	res := memsynth.Synthesize(tso, memsynth.Options{MaxEvents: 6})
	var tests []*memsynth.Test
	for _, e := range res.Union.Entries {
		tests = append(tests, e.Test)
	}
	b.ResetTimer()
	var detected, falsePositives int
	for i := 0; i < b.N; i++ {
		detected, falsePositives = 0, 0
		for _, row := range memsynth.FaultDetectionMatrix(tso, tests) {
			if row.Fault.String() == "none" {
				if row.Detected {
					falsePositives++
				}
				continue
			}
			if row.Detected {
				detected++
			}
		}
	}
	b.ReportMetric(float64(detected), "faults-detected")
	b.ReportMetric(float64(len(memsynth.AllMachineFaults())), "faults-seeded")
	b.ReportMetric(float64(falsePositives), "false-positives")
}

// BenchmarkRandomBaseline measures the §2.1 random-generation baseline:
// minimal-pattern coverage per 1000 random tests.
func BenchmarkRandomBaseline(b *testing.B) {
	tso, err := memsynth.ModelByName("tso")
	if err != nil {
		b.Fatal(err)
	}
	res := memsynth.Synthesize(tso, memsynth.Options{MaxEvents: 4})
	target := map[string]bool{}
	for _, e := range res.Union.Entries {
		target[e.Key] = true
	}
	b.ResetTimer()
	var covered int
	for i := 0; i < b.N; i++ {
		g := memsynth.NewRandomGenerator(tso, memsynth.RandomOptions{MaxEvents: 4}, int64(i+1))
		seen := map[string]bool{}
		for j := 0; j < 1000; j++ {
			lt := g.Test()
			w := memsynth.ForbiddenWitness(tso, lt)
			if w == nil {
				continue
			}
			if v := memsynth.CheckMinimal(tso, w); len(v.MinimalFor()) > 0 {
				if key := memsynth.CanonicalKey(w); target[key] {
					seen[key] = true
				}
			}
		}
		covered = len(seen)
	}
	b.ReportMetric(float64(covered), "patterns-covered")
	b.ReportMetric(float64(len(target)), "patterns-total")
}

// --- ablations of the design choices DESIGN.md calls out ---

// BenchmarkAblationPruning measures the two always-sound generator prunes
// (leading/trailing fences; isolated addresses). Suites are identical
// either way (TestPruningPreservesSuites); only the explored program count
// changes.
func BenchmarkAblationPruning(b *testing.B) {
	for _, tc := range []struct {
		name string
		opts memsynth.Options
	}{
		{"pruned", memsynth.Options{MaxEvents: 5}},
		{"unpruned", memsynth.Options{MaxEvents: 5, KeepTrivialFences: true, KeepIsolatedAddrs: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var res *memsynth.Result
			for i := 0; i < b.N; i++ {
				res = mustSynth(b, "tso", tc.opts)
			}
			b.ReportMetric(float64(res.Stats.ProgramsRaw), "programs-raw")
			b.ReportMetric(float64(len(res.Union.Entries)), "union-tests")
		})
	}
}

// BenchmarkAblationParallel measures the worker fan-out extension
// (sequential vs parallel synthesis of the same suite).
func BenchmarkAblationParallel(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustSynth(b, "scc", memsynth.Options{MaxEvents: 4, Workers: workers})
			}
		})
	}
}

// BenchmarkParallelScaling measures the parallel engine's wall-clock
// scaling on a TSO bound-5 run: Workers=1 vs Workers=NumCPU. The suites
// are byte-identical for every worker count (dedupe keeps the
// generation-order-first representative of each symmetry class; see
// TestParallelByteIdenticalSuites in internal/synth), so ns/op is the
// only thing that changes. On a single-core host the two sub-benchmarks
// coincide; on N cores the NumCPU run's speedup is the engine's
// parallel efficiency.
func BenchmarkParallelScaling(b *testing.B) {
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var res *memsynth.Result
			for i := 0; i < b.N; i++ {
				res = mustSynth(b, "tso", memsynth.Options{MaxEvents: 5, Workers: workers})
			}
			b.ReportMetric(float64(len(res.Union.Entries)), "union-tests")
			b.ReportMetric(float64(res.Stats.Programs), "programs")
		})
	}
}

// BenchmarkAblationSymmetryReduction measures how much work canonical
// program dedupe saves: the ratio of raw to distinct programs is the
// redundancy that Mador-Haim-style symmetry reduction removes before any
// execution is enumerated (paper §5.1).
func BenchmarkAblationSymmetryReduction(b *testing.B) {
	var res *memsynth.Result
	for i := 0; i < b.N; i++ {
		res = mustSynth(b, "scc", memsynth.Options{MaxEvents: 4})
	}
	b.ReportMetric(float64(res.Stats.ProgramsRaw), "programs-raw")
	b.ReportMetric(float64(res.Stats.Programs), "programs-distinct")
}

func mustSynth(b *testing.B, name string, opts memsynth.Options) *memsynth.Result {
	b.Helper()
	m, err := memsynth.ModelByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return memsynth.Synthesize(m, opts)
}

// --- microbenchmarks for the substrates ---

func BenchmarkOutcomeEnumeration(b *testing.B) {
	tso, _ := memsynth.ModelByName("tso")
	iriw := memsynth.NewTest("IRIW", [][]memsynth.Op{
		{memsynth.W(0)}, {memsynth.W(1)},
		{memsynth.R(0), memsynth.R(1)},
		{memsynth.R(1), memsynth.R(0)},
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		memsynth.Outcomes(tso, iriw)
	}
}

func BenchmarkMinimalityCheck(b *testing.B) {
	scc, _ := memsynth.ModelByName("scc")
	mp := memsynth.NewTest("MP", [][]memsynth.Op{
		{memsynth.W(0), memsynth.Wrel(1)},
		{memsynth.Racq(1), memsynth.R(0)},
	})
	var witness *memsynth.Execution
	for _, o := range memsynth.Outcomes(scc, mp) {
		if !o.Valid {
			witness = o.Exec
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		memsynth.CheckMinimal(scc, witness)
	}
}

func BenchmarkCanonicalKey(b *testing.B) {
	tso, _ := memsynth.ModelByName("tso")
	iriw := memsynth.NewTest("IRIW", [][]memsynth.Op{
		{memsynth.W(0)}, {memsynth.W(1)},
		{memsynth.R(0), memsynth.R(1)},
		{memsynth.R(1), memsynth.R(0)},
	})
	outcome := memsynth.Outcomes(tso, iriw)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		memsynth.CanonicalKey(outcome.Exec)
	}
}

func BenchmarkTSOMachine(b *testing.B) {
	sb := memsynth.NewTest("SB+mfences", [][]memsynth.Op{
		{memsynth.W(0), memsynth.F(memsynth.FMFence), memsynth.R(1)},
		{memsynth.W(1), memsynth.F(memsynth.FMFence), memsynth.R(0)},
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := memsynth.RunTSOMachine(sb); err != nil {
			b.Fatal(err)
		}
	}
}
