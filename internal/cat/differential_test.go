package cat_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"memsynth/internal/cat"
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/synth"
)

// compileExample compiles one of the shipped transcriptions.
func compileExample(t *testing.T, name string) *cat.Model {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "cat", name))
	if err != nil {
		t.Fatalf("reading example: %v", err)
	}
	m, err := cat.Compile(string(src))
	if err != nil {
		t.Fatalf("compiling %s: %v", name, err)
	}
	return m
}

// corpus returns the classic litmus tests the verdicts are differenced
// over: every communication shape the SC/TSO axioms distinguish, with and
// without fences, plus RMW interactions.
func corpus() []*litmus.Test {
	mk := litmus.New
	R, W, F := litmus.R, litmus.W, litmus.F
	return []*litmus.Test{
		mk("MP", [][]litmus.Op{{W(0), W(1)}, {R(1), R(0)}}),
		mk("SB", [][]litmus.Op{{W(0), R(1)}, {W(1), R(0)}}),
		mk("SB+mfences", [][]litmus.Op{
			{W(0), F(litmus.FMFence), R(1)},
			{W(1), F(litmus.FMFence), R(0)},
		}),
		mk("SB+mfence+po", [][]litmus.Op{
			{W(0), F(litmus.FMFence), R(1)},
			{W(1), R(0)},
		}),
		mk("LB", [][]litmus.Op{{R(0), W(1)}, {R(1), W(0)}}),
		mk("S", [][]litmus.Op{{W(0), W(1)}, {R(1), W(0)}}),
		mk("R", [][]litmus.Op{{W(0), W(1)}, {W(1), R(0)}}),
		mk("2+2W", [][]litmus.Op{{W(0), W(1)}, {W(1), W(0)}}),
		mk("IRIW", [][]litmus.Op{
			{W(0)}, {W(1)}, {R(0), R(1)}, {R(1), R(0)},
		}),
		mk("CoRR", [][]litmus.Op{{W(0)}, {R(0), R(0)}}),
		mk("CoWW+RMW", [][]litmus.Op{{R(0), W(0)}, {W(0)}},
			litmus.WithRMW(0, 0)),
		mk("SB+RMW", [][]litmus.Op{{R(0), W(0), R(1)}, {W(1), R(0)}},
			litmus.WithRMW(0, 0)),
	}
}

// diffModels checks that the compiled model and the Go model agree on
// every axiom verdict, over every execution of every corpus test, under
// the identity perturbation and every applicable relaxation.
func diffModels(t *testing.T, goModel memmodel.Model, catModel *cat.Model) {
	t.Helper()
	goAx, catAx := goModel.Axioms(), catModel.Axioms()
	if len(goAx) != len(catAx) {
		t.Fatalf("axiom count: go %d, cat %d", len(goAx), len(catAx))
	}
	for i := range goAx {
		if goAx[i].Name != catAx[i].Name {
			t.Fatalf("axiom %d name: go %q, cat %q", i, goAx[i].Name, catAx[i].Name)
		}
	}
	if got, want := memmodel.RelaxationTags(catModel), memmodel.RelaxationTags(goModel); !reflect.DeepEqual(got, want) {
		t.Fatalf("relaxation tags: cat %v, go %v", got, want)
	}

	for _, lt := range corpus() {
		goApps := memmodel.Applications(goModel, lt)
		catApps := memmodel.Applications(catModel, lt)
		if !reflect.DeepEqual(goApps, catApps) {
			t.Fatalf("%s: applications differ:\n  go:  %v\n  cat: %v", lt.Name, goApps, catApps)
		}
		perturbs := append([]exec.Perturb{exec.NoPerturb}, goApps...)
		execs := 0
		orders := goModel.Vocab().SCOrders(lt)
		exec.Enumerate(lt, exec.EnumerateOptions{}, func(x *exec.Execution) bool {
			execs++
			for _, sc := range orders {
				x.SC = sc
				for _, p := range perturbs {
					gv, cv := exec.NewView(x, p), exec.NewView(x, p)
					for i := range goAx {
						g, c := goAx[i].Holds(gv), catAx[i].Holds(cv)
						if g != c {
							t.Errorf("%s perturb %v axiom %s: go=%t cat=%t (exec rf=%v co=%v sc=%v)",
								lt.Name, p, goAx[i].Name, g, c, x.RF, x.CO, x.SC)
							return false
						}
					}
				}
			}
			return true
		})
		if execs == 0 {
			t.Fatalf("%s: no executions enumerated", lt.Name)
		}
	}
}

func TestSCDifferential(t *testing.T) {
	diffModels(t, memmodel.SC(), compileExample(t, "sc.cat"))
}

func TestTSODifferential(t *testing.T) {
	diffModels(t, memmodel.TSO(), compileExample(t, "tso.cat"))
}

// suiteText renders a suite exactly as the store and server serve it.
func suiteText(s *synth.Suite) string {
	specs := make([]*litmus.Spec, len(s.Entries))
	for i, e := range s.Entries {
		specs[i] = &litmus.Spec{Test: e.Test, Forbid: e.Exec.OutcomeConds()}
	}
	return litmus.FormatSuite(specs)
}

// testSuiteEquivalence is the acceptance check: the compiled model must
// synthesize byte-identical suites to the built-in at the default bounds.
func testSuiteEquivalence(t *testing.T, goModel memmodel.Model, catModel *cat.Model) {
	t.Helper()
	opts := synth.Options{MaxEvents: 4}
	goRes := synth.Synthesize(goModel, opts)
	catRes := synth.Synthesize(catModel, opts)

	if got, want := suiteText(catRes.Union), suiteText(goRes.Union); got != want {
		t.Errorf("union suite differs (cat %d tests, go %d tests)",
			len(catRes.Union.Entries), len(goRes.Union.Entries))
	}
	if got, want := catRes.AxiomNames(), goRes.AxiomNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("axiom suites: cat %v, go %v", got, want)
	}
	for _, name := range goRes.AxiomNames() {
		if got, want := suiteText(catRes.PerAxiom[name]), suiteText(goRes.PerAxiom[name]); got != want {
			t.Errorf("axiom %s suite differs (cat %d tests, go %d tests)",
				name, len(catRes.PerAxiom[name].Entries), len(goRes.PerAxiom[name].Entries))
		}
	}
	if catRes.ModelSource != "cat" || catRes.ModelDigest != catModel.SourceDigest() {
		t.Errorf("result provenance: source %q digest %q, want cat/%q",
			catRes.ModelSource, catRes.ModelDigest, catModel.SourceDigest())
	}
	if goRes.ModelSource != "builtin" || goRes.ModelDigest != "" {
		t.Errorf("builtin provenance: source %q digest %q, want builtin/\"\"",
			goRes.ModelSource, goRes.ModelDigest)
	}
}

func TestSCSuiteEquivalence(t *testing.T) {
	testSuiteEquivalence(t, memmodel.SC(), compileExample(t, "sc.cat"))
}

func TestTSOSuiteEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("tso bound-4 synthesis in -short mode")
	}
	testSuiteEquivalence(t, memmodel.TSO(), compileExample(t, "tso.cat"))
}
