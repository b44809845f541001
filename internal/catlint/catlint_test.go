package catlint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memsynth/internal/memmodel"
)

// expect is one expected finding: its code and exact source position.
type expect struct {
	code string
	pos  string // "line:col"
}

// TestFixtures pins, for every seeded-bad definition under testdata/, the
// exact finding codes and positions the analyzer must report — no more,
// no fewer.
func TestFixtures(t *testing.T) {
	cases := map[string][]expect{
		"vacuous.cat":         {{CodeVacuousAxiom, "5:1"}},
		"redundant.cat":       {{CodeRedundantAxiom, "5:1"}},
		"dead_let.cat":        {{CodeUnusedLet, "4:5"}, {CodeUnusedLet, "5:5"}},
		"cyclic_demote.cat":   {{CodeCyclicDemote, "7:1"}},
		"unreachable_rmw.cat": {{CodeUnreachableRMW, "7:5"}},
		"self_cancel.cat":     {{CodeSelfCancelling, "4:18"}},
		"sc_vacuous.cat":      {{CodeVacuousAxiom, "4:1"}},
	}
	for name, want := range cases {
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			report := Lint(string(src), Options{})
			var got []expect
			for _, f := range report.Findings {
				got = append(got, expect{f.Code, fmt.Sprintf("%d:%d", f.Line, f.Col)})
			}
			if len(got) != len(want) {
				t.Fatalf("findings = %v, want %v (report: %+v)", got, want, report.Findings)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("finding %d = %v, want %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestExamplesClean: every shipped example definition must be finding-free
// at the default bound (the acceptance gate behind `make lint`).
func TestExamplesClean(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "cat", "*.cat"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example definitions found")
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		report := Lint(string(src), Options{})
		if len(report.Findings) != 0 {
			t.Errorf("%s: findings: %v", path, report.Findings)
		}
		if !report.Tier2 {
			t.Errorf("%s: tier 2 did not run", path)
		}
	}
}

// TestBuiltinTier2Verdicts pins the tier-2 verdicts of every builtin at
// the default bound: power and armv7 report observation and propagation
// redundant, and the others are clean. The sweep in `make lint` fails
// only on errors, so this test is what blocks a changed verdict.
func TestBuiltinTier2Verdicts(t *testing.T) {
	if raceEnabled {
		t.Skip("the builtin sweep is too slow under the race detector")
	}
	redundant := []string{"redundant observation", "redundant propagation"}
	want := map[string][]string{"power": redundant, "armv7": redundant}
	for _, m := range memmodel.All() {
		report := LintModel(m, Options{})
		if !report.Tier2 {
			t.Errorf("%s: tier 2 did not run", m.Name())
		}
		var verdicts []string
		for _, c := range report.Axioms {
			switch {
			case c.Vacuous:
				verdicts = append(verdicts, "vacuous "+c.Name)
			case c.Redundant:
				verdicts = append(verdicts, "redundant "+c.Name)
			}
		}
		if fmt.Sprint(verdicts) != fmt.Sprint(want[m.Name()]) || len(report.Findings) != len(verdicts) {
			t.Errorf("%s: verdicts %v and %d findings, want %v and one finding each",
				m.Name(), verdicts, len(report.Findings), want[m.Name()])
		}
	}
}

func lintFindings(t *testing.T, src string, opts Options) []Finding {
	t.Helper()
	return Lint(src, opts).Findings
}

func hasFinding(fs []Finding, code, pos string) bool {
	for _, f := range fs {
		if f.Code == code && fmt.Sprintf("%d:%d", f.Line, f.Col) == pos {
			return true
		}
	}
	return false
}

func TestTier1Structural(t *testing.T) {
	tests := []struct {
		name string
		src  string
		code string
		pos  string
	}{
		{"duplicate let", "model m\nlet a = po\nlet a = rf\nacyclic po as ax\nops R W\n", CodeDuplicateLet, "3:5"},
		{"shadowed builtin", "model m\nlet rf = po\nacyclic po as ax\nops R W\n", CodeShadowsBuiltin, "2:5"},
		{"duplicate axiom", "model m\nacyclic po as ax\nacyclic rf as ax\nops R W\n", CodeDuplicateAxiom, "3:1"},
		{"self difference", "model m\nacyclic po | (rf \\ rf) as ax\nops R W\n", CodeSelfCancelling, "2:18"},
		{"self intersection", "model m\nacyclic po | (rf & rf) as ax\nops R W\n", CodeSelfCancelling, "2:18"},
		{"self union", "model m\nacyclic po | (rf | rf) as ax\nops R W\n", CodeSelfCancelling, "2:18"},
		{"nested closure", "model m\nacyclic (po+)+ as ax\nops R W\n", CodeSelfCancelling, "2:14"},
		{"double inverse", "model m\nacyclic (po^-1)^-1 as ax\nops R W\n", CodeSelfCancelling, "2:16"},
		{"unreachable dep", "model m\nacyclic po | dep as ax\nops R W\ndeps addr\n", CodeUnreachableDep, "4:6"},
		{"undemotable order", "model m\nacyclic po as ax\nops R W R.acq\n", CodeUndemotableOp, "3:9"},
		{"self demote cycle", "model m\nacyclic po as ax\nops R W R.acq\ndemote R.acq -> R.acq\nrelax DMO\n", CodeCyclicDemote, "4:1"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			fs := lintFindings(t, tc.src, Options{DisableTier2: true})
			if !hasFinding(fs, tc.code, tc.pos) {
				t.Errorf("want %s at %s, got %v", tc.code, tc.pos, fs)
			}
		})
	}
}

// TestTier1NoFalsePositives: idioms that look close to the flagged
// patterns but are fine must not be reported.
func TestTier1NoFalsePositives(t *testing.T) {
	srcs := map[string]string{
		// A demote target at the bottom of a ladder needs no further
		// ladder entry.
		"ladder bottom": "model m\nacyclic po as ax\nops R W R.acq R.rlx\ndemote R.acq -> R.rlx\nrelax DMO\n",
		// A lone fence kind is relaxable via RI alone.
		"single fence": "model m\nacyclic po as ax\nops R W F.mfence\n",
		// Different operands: not self-cancelling.
		"real difference": "model m\nacyclic (po \\ rf) | co as ax\nops R W\n",
		// Transitive use through a live let.
		"transitive let": "model m\nlet a = po ; rf\nlet b = a | co\nacyclic b as ax\nops R W\n",
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			if fs := lintFindings(t, src, Options{DisableTier2: true}); len(fs) != 0 {
				t.Errorf("unexpected findings: %v", fs)
			}
		})
	}
}

func TestParseAndCompileErrors(t *testing.T) {
	// Unparsable source: a single positioned parse-error finding.
	r := Lint("model m\nacyclic po |\nops R\n", Options{})
	if len(r.Findings) != 1 || r.Findings[0].Code != CodeParseError || r.Findings[0].Severity != SevError {
		t.Fatalf("parse error report: %+v", r.Findings)
	}
	if r.Findings[0].Line != 2 {
		t.Errorf("parse error position: %d:%d", r.Findings[0].Line, r.Findings[0].Col)
	}

	// Resolver rejection that tier 1 does not model (undefined name):
	// surfaced as compile-error.
	r = Lint("model m\nacyclic nonsense as ax\nops R W\n", Options{})
	if len(r.Findings) != 1 || r.Findings[0].Code != CodeCompileError {
		t.Fatalf("compile error report: %+v", r.Findings)
	}

	// Resolver rejection tier 1 already reports (duplicate let): the
	// compile error must not be double-reported at the same position.
	r = Lint("model m\nlet a = po\nlet a = rf\nacyclic a as ax\nops R W\n", Options{})
	var codes []string
	for _, f := range r.Findings {
		codes = append(codes, f.Code)
	}
	if strings.Join(codes, ",") != CodeDuplicateLet {
		t.Errorf("duplicate-let codes = %v, want just %s", codes, CodeDuplicateLet)
	}
	if r.Tier2 {
		t.Error("tier 2 ran on an uncompilable definition")
	}
}

func TestTier2Verdicts(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "redundant.cat"))
	if err != nil {
		t.Fatal(err)
	}
	r := Lint(string(src), Options{})
	if !r.Tier2 || r.Bound != 4 {
		t.Fatalf("tier2=%v bound=%d", r.Tier2, r.Bound)
	}
	byName := make(map[string]AxiomCheck)
	for _, c := range r.Axioms {
		byName[c.Name] = c
	}
	perLoc, scOrder := byName["sc_per_loc"], byName["sc_order"]
	if !perLoc.Redundant || perLoc.Vacuous {
		t.Errorf("sc_per_loc verdict: %+v", perLoc)
	}
	if scOrder.Redundant || scOrder.Vacuous {
		t.Errorf("sc_order verdict: %+v", scOrder)
	}
	// The non-redundant axiom carries an independence witness: a program
	// plus the outcome it alone rejects.
	if scOrder.Witness == "" || !strings.Contains(scOrder.Witness, "outcome:") {
		t.Errorf("sc_order witness: %q", scOrder.Witness)
	}
	if perLoc.Witness != "" {
		t.Errorf("redundant axiom has a witness: %q", perLoc.Witness)
	}
}

// TestTier2VacuousNotAlsoRedundant: a vacuous axiom trivially never fails
// alone; only the stronger verdict is reported.
func TestTier2VacuousNotAlsoRedundant(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "vacuous.cat"))
	if err != nil {
		t.Fatal(err)
	}
	r := Lint(string(src), Options{})
	for _, f := range r.Findings {
		if f.Code == CodeRedundantAxiom {
			t.Errorf("vacuous axiom also reported redundant: %v", f)
		}
	}
}

// TestTier2VocabGuard: an oversized vocabulary skips tier 2 instead of
// exploding combinatorially.
func TestTier2VocabGuard(t *testing.T) {
	src := "model m\nacyclic po | rf | co | fr as ax\nops R W\n"
	r := Lint(src, Options{MaxVocab: 1})
	if r.Tier2 {
		t.Error("tier 2 ran above the vocabulary cap")
	}
	if len(r.Findings) != 0 {
		t.Errorf("unexpected findings: %v", r.Findings)
	}
}

// TestLintModelBuiltin: the semantic tier applies to compiled Go models
// too; SC is clean at the default bound.
func TestLintModelBuiltin(t *testing.T) {
	r := LintModel(memmodel.SC(), Options{})
	if len(r.Findings) != 0 {
		t.Errorf("sc builtin findings: %v", r.Findings)
	}
	if !r.Tier2 || len(r.Axioms) == 0 {
		t.Errorf("tier2=%v axioms=%v", r.Tier2, r.Axioms)
	}
}

// TestReportRendering covers both output formats.
func TestReportRendering(t *testing.T) {
	r := Lint("model m\nlet dead = po\nacyclic po | rf | co | fr as ax\nops R W\n", Options{DisableTier2: true})
	if r.Errors() != 0 || r.Warnings() != 1 || r.HasErrors() {
		t.Fatalf("errors=%d warnings=%d", r.Errors(), r.Warnings())
	}
	text := r.Format("m.cat")
	if !strings.Contains(text, "m.cat:2:5: warning: unused-let") {
		t.Errorf("human format: %q", text)
	}
	if js := r.JSON(); !strings.Contains(js, `"code": "unused-let"`) || !strings.Contains(js, `"line": 2`) {
		t.Errorf("json format: %s", js)
	}
}
