package admit_test

// Admit benchmark rows for BENCH_synth.json: `make bench` runs this test
// after the synth snapshot, merging an
// "admit_cases" section that measures the fast-admissibility filter on
// the enumeration engine's worst regime — single-address tso programs,
// whose factorially many coherence orders the filter prunes wholesale
// whenever saturation refutes the reads-from assignment above them.
//
// The headline case is tso bound 8 with one address: exhaustive
// enumeration cannot finish it within the bench timeout (the enum row of
// backend_cases in BENCH_synth.json), while the same enumeration engine
// with the filter on completes — that completion is asserted, not just
// recorded.

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

// admitBenchTimeout matches the timeout of the committed backend_cases
// rows so the admit-on rows are directly comparable with them.
const admitBenchTimeout = 150 * time.Second

type admitCase struct {
	Model    string `json:"model"`
	Bound    int    `json:"bound"`
	MaxAddrs int    `json:"max_addrs,omitempty"`
	Admit    string `json:"admit"`

	ElapsedNS int64 `json:"elapsed_ns"`
	TimeoutNS int64 `json:"timeout_ns"`
	// Completed is false when the run hit the bench timeout and returned
	// a partial suite (Stats.Interrupted).
	Completed      bool `json:"completed"`
	Programs       int  `json:"programs"`
	Executions     int  `json:"executions"`
	ExecutionsFast int  `json:"executions_fast"`
	Entries        int  `json:"union_entries"`
}

func runAdmitCase(t *testing.T, model string, bound, maxAddrs int, mode string) admitCase {
	t.Helper()
	m, err := memmodel.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), admitBenchTimeout)
	defer cancel()
	start := time.Now()
	res, err := synth.SynthesizeContext(ctx, m, synth.Options{
		MaxEvents: bound,
		MaxAddrs:  maxAddrs,
		Admit:     mode,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("%s/admit=%s@%d: %v", model, mode, bound, err)
	}
	label := mode
	if label == "" {
		label = "auto"
	}
	c := admitCase{
		Model: model, Bound: bound, MaxAddrs: maxAddrs, Admit: label,
		ElapsedNS: elapsed.Nanoseconds(), TimeoutNS: admitBenchTimeout.Nanoseconds(),
		Completed:      !res.Stats.Interrupted,
		Programs:       res.Stats.Programs,
		Executions:     res.Stats.Executions,
		ExecutionsFast: res.Stats.ExecutionsFast,
		Entries:        len(res.Union.Entries),
	}
	t.Logf("%s@%d addrs=%d admit=%s: %v completed=%v programs=%d execs=%d fast=%d tests=%d",
		model, bound, maxAddrs, label, elapsed.Round(time.Millisecond),
		c.Completed, c.Programs, c.Executions, c.ExecutionsFast, c.Entries)
	return c
}

// TestBenchAdmit merges admit rows into the BENCH_JSON file written by
// the synth package's snapshot (skipped when BENCH_JSON is unset, so a
// plain `go test` never runs minute-scale benchmarks).
func TestBenchAdmit(t *testing.T) {
	out := os.Getenv("BENCH_JSON")
	if out == "" {
		t.Skip("BENCH_JSON not set; run via `make bench`")
	}
	short := os.Getenv("BENCH_SHORT") != ""

	var cases []admitCase
	if short {
		for _, mode := range []string{"off", "auto"} {
			cases = append(cases, runAdmitCase(t, "tso", 6, 1, mode))
		}
	} else {
		// Shared completion point: both modes finish, rows comparable.
		for _, mode := range []string{"off", "auto"} {
			cases = append(cases, runAdmitCase(t, "tso", 7, 1, mode))
		}
		// Headline point: plain enumeration hits the bench timeout (the
		// committed backend_cases enum row), the filtered enumeration must
		// complete.
		fast8 := runAdmitCase(t, "tso", 8, 1, "auto")
		cases = append(cases, fast8)
		if !fast8.Completed {
			t.Errorf("tso@8 with fast admissibility hit the bench timeout (%v); the filter regressed",
				time.Duration(fast8.ElapsedNS))
		}
		if fast8.ExecutionsFast == 0 {
			t.Error("tso@8 with fast admissibility pruned nothing")
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
	snap["admit_cases"] = cases
	merged, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	merged = append(merged, '\n')
	if err := os.WriteFile(out, merged, 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("merged %d admit cases into %s\n", len(cases), out)
}
