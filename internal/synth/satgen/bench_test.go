package satgen_test

// Backend benchmark rows for BENCH_synth.json: `make bench` first runs
// the synth package's TestBenchSnapshot (which rewrites the file), then
// this test, which merges a "backend_cases" section comparing the enum
// and sat backends on identical workloads — including a deadline-bounded
// case the enum backend cannot finish within the bench timeout while the
// sat backend completes it.
//
// The showdown case is the regime the SAT encoding targets: single-address
// programs at bound 8, whose factorially many coherence orders drown
// exhaustive enumeration while the relational query's size barely grows.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"memsynth/internal/memmodel"
	"memsynth/internal/synth"
)

// benchTimeout bounds each timed backend run. It is calibrated so that at
// the showdown point (tso, bound 8, one address) the sat backend finishes
// within it and the enum backend does not: on the reference 1-CPU box the
// sat backend completes in ~94s while the enum backend needs ~217s to grind
// through 135M enumerated executions. 150s sits between the two with
// balanced margins — sat would have to slow down 60%, or enum speed up
// 31%, before either assertion flips.
const benchTimeout = 150 * time.Second

type backendCase struct {
	Model    string `json:"model"`
	Bound    int    `json:"bound"`
	MaxAddrs int    `json:"max_addrs,omitempty"`
	Backend  string `json:"backend"`

	ElapsedNS int64 `json:"elapsed_ns"`
	TimeoutNS int64 `json:"timeout_ns"`
	// Completed is false when the run hit the bench timeout and returned
	// a partial suite (Stats.Interrupted).
	Completed  bool `json:"completed"`
	Programs   int  `json:"programs"`
	Executions int  `json:"executions"`
	Entries    int  `json:"union_entries"`
}

func runBenchCase(t *testing.T, model string, bound, maxAddrs int, backend string) backendCase {
	t.Helper()
	m, err := memmodel.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), benchTimeout)
	defer cancel()
	start := time.Now()
	res, err := synth.SynthesizeContext(ctx, m, synth.Options{
		MaxEvents: bound,
		MaxAddrs:  maxAddrs,
		Backend:   backend,
		// Fast admissibility stays off here so these rows keep comparing
		// the raw backends; the admit_cases section measures the filter.
		Admit: "off",
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("%s/%s@%d: %v", model, backend, bound, err)
	}
	c := backendCase{
		Model: model, Bound: bound, MaxAddrs: maxAddrs, Backend: backend,
		ElapsedNS: elapsed.Nanoseconds(), TimeoutNS: benchTimeout.Nanoseconds(),
		Completed:  !res.Stats.Interrupted,
		Programs:   res.Stats.Programs,
		Executions: res.Stats.Executions,
		Entries:    len(res.Union.Entries),
	}
	t.Logf("%s@%d addrs=%d %s: %v completed=%v programs=%d execs=%d tests=%d",
		model, bound, maxAddrs, backend, elapsed.Round(time.Millisecond),
		c.Completed, c.Programs, c.Executions, c.Entries)
	return c
}

// TestBenchBackends merges per-backend rows into the BENCH_JSON file
// written by the synth package's snapshot (skipped when BENCH_JSON is
// unset, so a plain `go test` never runs minute-scale benchmarks).
func TestBenchBackends(t *testing.T) {
	out := os.Getenv("BENCH_JSON")
	if out == "" {
		t.Skip("BENCH_JSON not set; run via `make bench`")
	}
	short := os.Getenv("BENCH_SHORT") != ""

	var cases []backendCase
	if short {
		for _, be := range []string{"enum", "sat"} {
			cases = append(cases, runBenchCase(t, "tso", 6, 1, be))
		}
	} else {
		// Shared completion point: both backends finish, rows comparable.
		for _, be := range []string{"enum", "sat"} {
			cases = append(cases, runBenchCase(t, "tso", 7, 1, be))
		}
		// Showdown point: enum hits the bench timeout (completed=false,
		// partial suite), sat completes.
		for _, be := range []string{"enum", "sat"} {
			cases = append(cases, runBenchCase(t, "tso", 8, 1, be))
		}
		enum8, sat8 := cases[2], cases[3]
		if enum8.Completed {
			t.Errorf("enum tso@8 finished within the bench timeout (%v); raise the showdown bound",
				time.Duration(enum8.ElapsedNS))
		}
		if !sat8.Completed {
			t.Errorf("sat tso@8 hit the bench timeout (%v); the showdown case regressed",
				time.Duration(sat8.ElapsedNS))
		}
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("BENCH_JSON must exist (run the synth snapshot first): %v", err)
	}
	var snap map[string]any
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("parse %s: %v", out, err)
	}
	snap["backend_cases"] = cases
	merged, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	merged = append(merged, '\n')
	if err := os.WriteFile(out, merged, 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("merged %d backend cases into %s\n", len(cases), out)
}
