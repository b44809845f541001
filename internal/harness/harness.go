// Package harness runs litmus-test suites against an implementation under
// test and reports violations — the downstream black-box testing workflow
// the paper's synthesized suites feed into ("These tests can then be fed
// into any existing testing infrastructure", §1).
//
// An implementation is anything that can execute a litmus test and report
// the set of outcomes it exhibits (here: the operational machines of
// package tsosim, including their fault-injected variants). A violation is
// an outcome the axiomatic model forbids. The package tests demonstrate the
// paper's core value proposition: the synthesized minimal suites detect
// every seeded implementation bug, including bugs that hand-curated suites
// can miss.
package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/tsosim"
)

// Machine executes a litmus test exhaustively and returns the outcomes it
// can exhibit, keyed by tsosim.Outcome.Key.
type Machine func(t *litmus.Test) (map[string]tsosim.Outcome, error)

// Violation is one forbidden outcome an implementation exhibited.
type Violation struct {
	// Test is the litmus test that exposed the bug.
	Test *litmus.Test
	// Outcome is the forbidden outcome observed.
	Outcome tsosim.Outcome
}

func (v Violation) String() string {
	return fmt.Sprintf("%v exhibits forbidden outcome rf=%v final=%v",
		v.Test, v.Outcome.ReadsFrom, v.Outcome.FinalWrite)
}

// allowedKeys projects the model-valid executions of t onto the machine
// outcome space (reads-from per read, final write per address). An
// execution is valid when the model holds under some sc order; the order
// is not part of the outcome.
func allowedKeys(m memmodel.Model, t *litmus.Test) map[string]bool {
	allowed := make(map[string]bool)
	valid := memmodel.ValidUnderSomeSC(m, t)
	exec.Enumerate(t, exec.EnumerateOptions{}, func(x *exec.Execution) bool {
		if !valid(x) {
			return true
		}
		o := tsosim.Outcome{
			ReadsFrom:  append([]int(nil), x.RF...),
			FinalWrite: make([]int, t.NumAddrs()),
		}
		for a := 0; a < t.NumAddrs(); a++ {
			o.FinalWrite[a] = -1
			if a < len(x.CO) && len(x.CO[a]) > 0 {
				o.FinalWrite[a] = x.CO[a][len(x.CO[a])-1]
			}
		}
		allowed[o.Key()] = true
		return true
	})
	return allowed
}

// Check runs one test on the machine and returns the violations (outcomes
// the model forbids).
func Check(m memmodel.Model, t *litmus.Test, run Machine) ([]Violation, error) {
	observed, err := run(t)
	if err != nil {
		return nil, err
	}
	allowed := allowedKeys(m, t)
	var out []Violation
	var keys []string
	for k := range observed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !allowed[k] {
			out = append(out, Violation{Test: t, Outcome: observed[k]})
		}
	}
	return out, nil
}

// SuiteReport summarizes a suite run against one machine.
type SuiteReport struct {
	// TestsRun counts the tests executed.
	TestsRun int
	// Violations lists every forbidden outcome observed, in suite order.
	Violations []Violation
	// DetectingTests counts the tests that exposed at least one
	// violation.
	DetectingTests int
	// Skipped counts tests the machine could not execute (vocabulary
	// mismatch).
	Skipped int
	// Interrupted reports that the run was cancelled before every test
	// executed; the report covers the tests run up to that point.
	Interrupted bool
}

// Detected reports whether any test exposed a violation.
func (r SuiteReport) Detected() bool { return len(r.Violations) > 0 }

// RunProgress is one suite-run progress observation, delivered after each
// test.
type RunProgress struct {
	// TestsRun counts tests executed so far, Total the suite size.
	TestsRun, Total int
	// Violations counts forbidden outcomes observed so far.
	Violations int
}

// RunSuite checks every test of the suite against the machine. Tests the
// machine cannot execute (unsupported vocabulary) are counted as skipped,
// not errors, so suites for richer models can run on narrower machines.
func RunSuite(m memmodel.Model, tests []*litmus.Test, run Machine) SuiteReport {
	return RunSuiteContext(context.Background(), m, tests, run, nil)
}

// RunSuiteContext is RunSuite with cancellation and progress streaming:
// the run stops between tests when ctx is done (Interrupted is set on the
// partial report), and progress, when non-nil, is called after each test.
func RunSuiteContext(ctx context.Context, m memmodel.Model, tests []*litmus.Test, run Machine, progress func(RunProgress)) SuiteReport {
	var report SuiteReport
	for _, t := range tests {
		if ctx.Err() != nil {
			report.Interrupted = true
			break
		}
		violations, err := Check(m, t, run)
		if err != nil {
			report.Skipped++
			continue
		}
		report.TestsRun++
		if len(violations) > 0 {
			report.DetectingTests++
			report.Violations = append(report.Violations, violations...)
		}
		if progress != nil {
			progress(RunProgress{TestsRun: report.TestsRun, Total: len(tests), Violations: len(report.Violations)})
		}
	}
	return report
}

// DetectionRow records which faults a suite detects.
type DetectionRow struct {
	// Machine labels the implementation under test: "sim:<fault>" rows
	// are the tsosim variants; "host:<mode>" is the native stress
	// executor running on real hardware ("" is read as the simulator for
	// rows built by older callers).
	Machine  string
	Fault    tsosim.Fault
	Detected bool
	// FirstTest is the first test exposing the fault (nil if undetected).
	FirstTest *litmus.Test
}

// IsHost reports whether the row ran on the native stress executor
// rather than a simulator variant.
func (r DetectionRow) IsHost() bool { return strings.HasPrefix(r.Machine, "host:") }

// DetectionSummary is the serialization-friendly projection of a
// DetectionRow: machine, fault, and first detecting test flattened to
// strings, with JSON tags for API responses (memsynthd's detect
// endpoint).
type DetectionSummary struct {
	Machine   string `json:"machine,omitempty"`
	Fault     string `json:"fault,omitempty"`
	Detected  bool   `json:"detected"`
	FirstTest string `json:"first_test,omitempty"`
}

// Summarize projects detection rows onto their serializable summaries.
// Host rows carry no fault label — their Detected flag means "the real
// machine exhibited a model-forbidden outcome".
func Summarize(rows []DetectionRow) []DetectionSummary {
	out := make([]DetectionSummary, len(rows))
	for i, r := range rows {
		out[i] = DetectionSummary{Machine: r.Machine, Detected: r.Detected}
		if !r.IsHost() {
			out[i].Fault = r.Fault.String()
		}
		if r.FirstTest != nil {
			out[i].FirstTest = r.FirstTest.String()
		}
	}
	return out
}

// DetectionMatrix runs the suite against every seeded fault of the x86-TSO
// machine and reports which are caught. The correct machine (FaultNone)
// must produce no violations; it is checked first and reported as a row
// with Detected meaning "false positives seen".
func DetectionMatrix(m memmodel.Model, tests []*litmus.Test) []DetectionRow {
	rows, _ := DetectionMatrixContext(context.Background(), m, tests)
	return rows
}

// DetectionMatrixContext is DetectionMatrix with cancellation: it stops
// between machine variants (and between tests) when ctx is done,
// returning the rows completed so far along with ctx.Err().
func DetectionMatrixContext(ctx context.Context, m memmodel.Model, tests []*litmus.Test) ([]DetectionRow, error) {
	rows := make([]DetectionRow, 0, 6)
	for _, fault := range append([]tsosim.Fault{tsosim.FaultNone}, tsosim.AllFaults()...) {
		if ctx.Err() != nil {
			return rows, ctx.Err()
		}
		machine := func(t *litmus.Test) (map[string]tsosim.Outcome, error) {
			return tsosim.RunFaulty(t, fault)
		}
		report := RunSuiteContext(ctx, m, tests, machine, nil)
		if report.Interrupted {
			return rows, ctx.Err()
		}
		row := DetectionRow{Machine: "sim:" + fault.String(), Fault: fault, Detected: report.Detected()}
		if len(report.Violations) > 0 {
			row.FirstTest = report.Violations[0].Test
		}
		rows = append(rows, row)
	}
	return rows, nil
}
