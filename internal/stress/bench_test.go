package stress_test

// Stress-executor benchmark rows for BENCH_synth.json: `make bench` runs
// this after the synthesis snapshot and the admit rows, merging a
// "stress_cases" section — per-suite native-execution throughput
// (iterations/sec) with the model cross-check applied, so executor perf
// and soundness travel with the other perf numbers across PRs.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"memsynth/internal/harness"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/stress"
	"memsynth/internal/synth"
)

type stressCase struct {
	Model string `json:"model"`
	Bound int    `json:"bound"`
	Mode  string `json:"mode"`
	Seed  int64  `json:"seed"`

	Tests       int     `json:"tests"`
	Iterations  int64   `json:"iterations"`
	ElapsedNS   int64   `json:"elapsed_ns"`
	ItersPerSec float64 `json:"iters_per_sec"`
	// Unexplained must be 0 in atomic mode; a nonzero value in the
	// committed snapshot is a soundness regression, not a perf number.
	Unexplained int64 `json:"unexplained"`
}

func runStressCase(t *testing.T, model string, bound, iters int, seed int64) stressCase {
	t.Helper()
	m, err := memmodel.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	res := synth.Synthesize(m, synth.Options{MaxEvents: bound})
	tests := make([]*litmus.Test, 0, len(res.Union.Entries))
	for _, e := range res.Union.Entries {
		tests = append(tests, e.Test)
	}
	rep := harness.RunStressSuite(context.Background(), m, tests,
		stress.Options{Iterations: iters, Seed: seed}, nil)
	c := stressCase{
		Model: model, Bound: bound, Mode: rep.Mode, Seed: rep.Seed,
		Tests:       rep.TestsRun,
		Iterations:  rep.Iterations,
		ElapsedNS:   rep.Elapsed.Nanoseconds(),
		Unexplained: rep.Unexplained,
	}
	if rep.Elapsed > 0 {
		c.ItersPerSec = float64(rep.Iterations) / rep.Elapsed.Seconds()
	}
	if rep.Unexplained > 0 {
		t.Errorf("%s@%d: %d iterations observed model-forbidden outcomes", model, bound, rep.Unexplained)
	}
	t.Logf("%s@%d: %d tests, %d iterations in %v (%.0f iters/s)",
		model, bound, c.Tests, c.Iterations, time.Duration(c.ElapsedNS).Round(time.Millisecond), c.ItersPerSec)
	return c
}

// TestBenchStress merges native-execution rows into the BENCH_JSON file
// written by the synth package's snapshot (skipped when BENCH_JSON is
// unset, so a plain `go test` stays fast).
func TestBenchStress(t *testing.T) {
	out := os.Getenv("BENCH_JSON")
	if out == "" {
		t.Skip("BENCH_JSON not set; run via `make bench`")
	}
	iters := 4096
	if os.Getenv("BENCH_SHORT") != "" {
		iters = 512
	}
	// A fixed seed keeps committed snapshots replayable and diffable.
	cases := []stressCase{
		runStressCase(t, "sc", 4, iters, 1),
		runStressCase(t, "tso", 4, iters, 1),
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("BENCH_JSON must exist (run the synth snapshot first): %v", err)
	}
	// RawMessage keeps the other sections byte-stable so the committed
	// snapshot diff is just the stress rows.
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("parse %s: %v", out, err)
	}
	rows, err := json.Marshal(cases)
	if err != nil {
		t.Fatal(err)
	}
	snap["stress_cases"] = rows
	merged, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	merged = append(merged, '\n')
	if err := os.WriteFile(out, merged, 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("merged %d stress cases into %s\n", len(cases), out)
}
