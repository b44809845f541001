package synth

// Benchmark snapshot harness: `make bench` runs TestBenchSnapshot with
// BENCH_JSON set to an output path, producing BENCH_synth.json — a
// committed, machine-readable record of synthesis performance (ns/op,
// allocs/op, executions/sec per model, plus an isolated explore-phase
// measurement) so the perf trajectory is comparable across PRs.
//
// BENCH_SHORT=1 shrinks the bounds for quick log-only CI runs.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"memsynth/internal/admit"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/minimal"
)

// benchCase is one fixed (model, bound) measurement point. The grid
// runs tso, power and scc at the largest bounds TestPaperCounts pins, so
// the committed snapshot measures the tabulated workloads.
type benchCase struct {
	model memmodel.Model
	bound int
}

func benchGrid(short bool) []benchCase {
	if short {
		return []benchCase{
			{memmodel.TSO(), 4},
			{memmodel.Power(), 3},
			{memmodel.SCC(), 3},
		}
	}
	return []benchCase{
		{memmodel.TSO(), 6},
		{memmodel.Power(), 4},
		{memmodel.SCC(), 4},
	}
}

// benchSynthesize is the full-run benchmark body: generate + explore +
// merge for one model at one bound.
func benchSynthesize(b *testing.B, m memmodel.Model, bound int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Synthesize(m, Options{MaxEvents: bound})
	}
}

// benchExplore pre-generates the distinct programs of every size and then
// times only the explore hot path — execution enumeration plus the
// minimality criterion — the phase the amortized evaluation contexts
// target.
func benchExplore(b *testing.B, m memmodel.Model, bound int) {
	opts := Options{MaxEvents: bound}.withDefaults()
	e := newEngine(m, opts)
	var perSize [][]*litmus.Test
	for n := opts.MinEvents; n <= bound; n++ {
		perSize = append(perSize, e.generateAndDedupe(n))
	}
	checker := minimal.NewChecker(m)
	var adm *admit.Checker
	if e.admitOn {
		adm = admit.NewChecker(m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, winners := range perSize {
			for _, w := range winners {
				e.processProgram(checker, adm, w)
			}
		}
	}
}

func BenchmarkSynthTSO6(b *testing.B)   { benchSynthesize(b, memmodel.TSO(), 6) }
func BenchmarkSynthPower4(b *testing.B) { benchSynthesize(b, memmodel.Power(), 4) }
func BenchmarkSynthSCC4(b *testing.B)   { benchSynthesize(b, memmodel.SCC(), 4) }

func BenchmarkExploreTSO6(b *testing.B)   { benchExplore(b, memmodel.TSO(), 6) }
func BenchmarkExplorePower4(b *testing.B) { benchExplore(b, memmodel.Power(), 4) }
func BenchmarkExploreSCC4(b *testing.B)   { benchExplore(b, memmodel.SCC(), 4) }

// benchRecord is one case's line in BENCH_synth.json.
type benchRecord struct {
	Model string `json:"model"`
	Bound int    `json:"bound"`

	// Full synthesis run (generate + dedupe + explore + merge).
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`

	// Explore phase alone (execution enumeration + minimality).
	ExploreNsPerOp     int64 `json:"explore_ns_per_op"`
	ExploreBytesPerOp  int64 `json:"explore_bytes_per_op"`
	ExploreAllocsPerOp int64 `json:"explore_allocs_per_op"`

	// Workload shape and throughput from one representative run.
	Programs       int     `json:"programs"`
	Executions     int     `json:"executions"`
	ExecutionsFast int     `json:"executions_fast,omitempty"`
	Entries        int     `json:"union_entries"`
	ExecsPerSecond float64 `json:"executions_per_second"`
}

type benchSnapshot struct {
	EngineVersion string        `json:"engine_version"`
	GoVersion     string        `json:"go_version"`
	GOOS          string        `json:"goos"`
	GOARCH        string        `json:"goarch"`
	Short         bool          `json:"short"`
	Cases         []benchRecord `json:"cases"`
}

// TestBenchSnapshot writes the benchmark snapshot to the path named by the
// BENCH_JSON environment variable (skipped when unset, so a plain
// `go test` never runs multi-second benchmarks).
func TestBenchSnapshot(t *testing.T) {
	out := os.Getenv("BENCH_JSON")
	if out == "" {
		t.Skip("BENCH_JSON not set; run via `make bench`")
	}
	short := os.Getenv("BENCH_SHORT") != ""
	snap := benchSnapshot{
		EngineVersion: EngineVersion,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		Short:         short,
	}
	for _, c := range benchGrid(short) {
		rec := benchRecord{Model: c.model.Name(), Bound: c.bound}

		full := testing.Benchmark(func(b *testing.B) { benchSynthesize(b, c.model, c.bound) })
		rec.NsPerOp = full.NsPerOp()
		rec.BytesPerOp = full.AllocedBytesPerOp()
		rec.AllocsPerOp = full.AllocsPerOp()

		explore := testing.Benchmark(func(b *testing.B) { benchExplore(b, c.model, c.bound) })
		rec.ExploreNsPerOp = explore.NsPerOp()
		rec.ExploreBytesPerOp = explore.AllocedBytesPerOp()
		rec.ExploreAllocsPerOp = explore.AllocsPerOp()

		res := Synthesize(c.model, Options{MaxEvents: c.bound})
		rec.Programs = res.Stats.Programs
		rec.Executions = res.Stats.Executions
		rec.ExecutionsFast = res.Stats.ExecutionsFast
		rec.Entries = len(res.Union.Entries)
		if explore.NsPerOp() > 0 {
			rec.ExecsPerSecond = float64(res.Stats.Executions) / (float64(explore.NsPerOp()) / 1e9)
		}

		t.Logf("%s@%d: full %v/op %d allocs/op | explore %v/op %d allocs/op | %.0f execs/sec",
			rec.Model, rec.Bound, full.NsPerOp(), rec.AllocsPerOp,
			explore.NsPerOp(), rec.ExploreAllocsPerOp, rec.ExecsPerSecond)
		snap.Cases = append(snap.Cases, rec)
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s (%d cases)\n", out, len(snap.Cases))
}
