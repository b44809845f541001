package satgen

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"memsynth/internal/canon"
	"memsynth/internal/cat"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/minimal"
	"memsynth/internal/store"
	"memsynth/internal/synth"
)

// distinctPrograms returns the generation-order-first program of every
// symmetry class of size n, in generation order: the programs the engine
// explores at that size.
func distinctPrograms(t *testing.T, m memmodel.Model, opts synth.Options, n int) []*litmus.Test {
	t.Helper()
	opts.MinEvents, opts.MaxEvents = n, n
	seen := make(map[string]bool)
	var winners []*litmus.Test
	err := synth.EnumeratePrograms(m.Vocab(), opts, func(p *litmus.Test) bool {
		if key := canon.ProgramKey(p); !seen[key] {
			seen[key] = true
			winners = append(winners, p)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return winners
}

// replay synthesizes m up to bound the paper's way and shares nothing with
// the engine's explore loop: one sequential pass draws every distinct
// program's candidates from guide g, re-confirms each with m's minimality
// checker, and builds the suites with first-wins dedupe and the engine's
// (size, key) order. It fails the test if the guide declines any program.
func replay(t *testing.T, m memmodel.Model, g *Guide, bound int) *synth.Result {
	t.Helper()
	opts := synth.Options{MaxEvents: bound}
	axioms := m.Axioms()
	union, perAxiom := []synth.Entry(nil), make([][]synth.Entry, len(axioms))
	c := minimal.NewChecker(m)
	programs := 0
	for n := 2; n <= bound; n++ {
		for _, p := range distinctPrograms(t, m, opts, n) {
			programs++
			cands, ok := g.Candidates(p)
			if !ok {
				t.Fatalf("%s@%d: guide declined program %d:\n%s", m.Name(), bound, programs, p)
			}
			c.Bind(p)
			for _, x := range cands {
				mins := c.Check(x).MinimalFor()
				if len(mins) == 0 {
					continue
				}
				e := synth.Entry{Test: p, Exec: x, Key: canon.Key(x), Size: n}
				union = append(union, e)
				for _, ai := range mins {
					perAxiom[ai] = append(perAxiom[ai], e)
				}
			}
		}
	}
	if programs == 0 {
		t.Fatalf("%s@%d: no programs generated", m.Name(), bound)
	}
	t.Logf("%s@%d: all %d programs guided", m.Name(), bound, programs)

	suite := func(axiom string, entries []synth.Entry) *synth.Suite {
		// Stable, so the first of equal keys is still first for NewSuite.
		sort.SliceStable(entries, func(i, j int) bool {
			if entries[i].Size != entries[j].Size {
				return entries[i].Size < entries[j].Size
			}
			return entries[i].Key < entries[j].Key
		})
		return synth.NewSuite(m.Name(), axiom, entries)
	}
	res := &synth.Result{
		Model:    m.Name(),
		Options:  opts,
		Backend:  "sat",
		PerAxiom: make(map[string]*synth.Suite, len(axioms)),
		Union:    suite("union", union),
	}
	res.ModelSource, res.ModelDigest = memmodel.SourceOf(m)
	for i, a := range axioms {
		res.PerAxiom[a.Name] = suite(a.Name, perAxiom[i])
	}
	return res
}

// engineRun is the reference: a default engine run (enumeration with
// admit auto) on two workers, so the parallel merge is exercised too.
func engineRun(t *testing.T, m memmodel.Model, bound int) *synth.Result {
	t.Helper()
	res, err := synth.SynthesizeContext(context.Background(), m, synth.Options{MaxEvents: bound, Workers: 2})
	if err != nil {
		t.Fatalf("%s@%d: %v", m.Name(), bound, err)
	}
	if res.Stats.Interrupted {
		t.Fatalf("%s@%d: interrupted", m.Name(), bound)
	}
	return res
}

// requireIdentical asserts the replay of m through guide g encodes to m's
// engine run: same digest, byte-identical suite texts, same manifest
// entries.
func requireIdentical(t *testing.T, m memmodel.Model, g *Guide, bound int) {
	t.Helper()
	se, err := store.Encode(engineRun(t, m, bound))
	if err != nil {
		t.Fatalf("encode engine: %v", err)
	}
	ss, err := store.Encode(replay(t, m, g, bound))
	if err != nil {
		t.Fatalf("encode replay: %v", err)
	}
	if se.Manifest.Digest != ss.Manifest.Digest {
		t.Errorf("%s@%d: digests differ: engine %s, sat %s",
			m.Name(), bound, se.Manifest.Digest, ss.Manifest.Digest)
	}
	if len(se.Texts) != len(ss.Texts) {
		t.Fatalf("%s@%d: suite count differs: engine %d, sat %d",
			m.Name(), bound, len(se.Texts), len(ss.Texts))
	}
	for name, wantText := range se.Texts {
		gotText, ok := ss.Texts[name]
		if !ok {
			t.Fatalf("%s@%d: sat replay missing suite %q", m.Name(), bound, name)
		}
		if gotText != wantText {
			t.Errorf("%s@%d: suite %q text differs from the engine's", m.Name(), bound, name)
		}
		if !reflect.DeepEqual(se.Manifest.Suites[name].Entries, ss.Manifest.Suites[name].Entries) {
			t.Errorf("%s@%d: suite %q manifest entries differ from the engine's", m.Name(), bound, name)
		}
	}
}

// exampleModel compiles examples/cat/<name>.cat.
func exampleModel(t *testing.T, name string) *cat.Model {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "..", "examples", "cat", name+".cat"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := cat.Compile(string(src))
	if err != nil {
		t.Fatalf("%s.cat: %v", name, err)
	}
	return m
}

// guideFor returns m's guide, failing the test if m is refused.
func guideFor(t *testing.T, m *cat.Model) *Guide {
	t.Helper()
	if ok, reason := Supports(m); !ok {
		t.Fatalf("%s refused: %s", m.Name(), reason)
	}
	return NewGuide(m)
}

// replayBound is the differential's bound: 5, or 4 under -short.
func replayBound() int {
	if testing.Short() {
		return 4
	}
	return 5
}

// TestDifferentialNative replays the Go builtins sc and tso through guides
// compiled from their cat transcripts (examples/cat/{sc,tso}.cat, which
// cat's TestSCSuiteEquivalence and TestTSOSuiteEquivalence pin to the
// builtins). Re-confirmation and the stored form use the builtin, so the
// replay must equal the builtin's default engine run.
func TestDifferentialNative(t *testing.T) {
	for _, name := range []string{"sc", "tso"} {
		m, err := memmodel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, m, guideFor(t, exampleModel(t, name)), replayBound())
	}
}

// TestDifferentialAllBuiltins runs the replay check at a small bound on
// every builtin that has a cat transcript under examples/cat, through the
// guide compiled from that transcript. Builtins without a transcript have
// no definition to encode and are only logged; sc and tso must be covered.
func TestDifferentialAllBuiltins(t *testing.T) {
	covered := make(map[string]bool)
	for _, m := range memmodel.All() {
		path := filepath.Join("..", "..", "..", "examples", "cat", m.Name()+".cat")
		if _, err := os.Stat(path); err != nil {
			t.Logf("%s: no cat transcript, not encoded", m.Name())
			continue
		}
		requireIdentical(t, m, guideFor(t, exampleModel(t, m.Name())), 3)
		covered[m.Name()] = true
	}
	for _, name := range []string{"sc", "tso"} {
		if !covered[name] {
			t.Errorf("builtin %s was not replayed through its cat transcript", name)
		}
	}
}

// TestDifferentialCatModels replays every example cat model through its
// own compiled guide and requires its own engine run's stored form.
func TestDifferentialCatModels(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "examples", "cat", "*.cat"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example cat models found: %v", err)
	}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".cat")
		m := exampleModel(t, name)
		requireIdentical(t, m, guideFor(t, m), replayBound())
	}
}

// TestSupportsRefusesSCOrder: a definition with an sc order over sc fences
// needs a universal quantifier the encoding lacks, so it is refused with a
// reason.
func TestSupportsRefusesSCOrder(t *testing.T) {
	m, err := cat.Compile(`model scfenced
acyclic po | rf | co | fr | scord as order
ops R W F.sc
sc-order
`)
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := Supports(m); ok {
		t.Error("sc-order definition reported as supported")
	} else if reason == "" {
		t.Error("sc-order definition refused with an empty reason")
	}
}
