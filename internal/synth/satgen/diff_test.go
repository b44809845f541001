package satgen_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"memsynth/internal/canon"
	"memsynth/internal/cat"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/minimal"
	"memsynth/internal/store"
	"memsynth/internal/synth"
	"memsynth/internal/synth/satgen"
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
// program's candidates from the SAT guide, re-confirms each with the
// minimality checker, and builds the suites with first-wins dedupe and
// the engine's (size, key) order. It fails the test if the guide declines
// any program.
func replay(t *testing.T, m memmodel.Model, bound int) *synth.Result {
	t.Helper()
	opts := synth.Options{MaxEvents: bound}
	axioms := m.Axioms()
	union, perAxiom := []synth.Entry(nil), make([][]synth.Entry, len(axioms))
	g := satgen.NewGuide(m)
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

// requireIdentical asserts the SAT replay encodes to the engine's stored
// form: same digest, byte-identical suite texts, same manifest entries.
func requireIdentical(t *testing.T, m memmodel.Model, bound int) {
	t.Helper()
	se, err := store.Encode(engineRun(t, m, bound))
	if err != nil {
		t.Fatalf("encode engine: %v", err)
	}
	ss, err := store.Encode(replay(t, m, bound))
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

// TestDifferentialNative replays the natively encoded models through the
// SAT guide on every program and demands the engine's suites and digest.
func TestDifferentialNative(t *testing.T) {
	bound := 5
	if testing.Short() {
		bound = 4
	}
	for _, name := range []string{"sc", "tso"} {
		m, err := memmodel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if ok, reason := satgen.Supports(m); !ok {
			t.Fatalf("expected native support for %s, got: %s", name, reason)
		}
		requireIdentical(t, m, bound)
	}
}

// TestDifferentialAllBuiltins runs the replay check at a small bound on
// every builtin the encoder supports, and requires a reason from the rest.
func TestDifferentialAllBuiltins(t *testing.T) {
	for _, m := range memmodel.All() {
		if ok, reason := satgen.Supports(m); !ok {
			if reason == "" {
				t.Errorf("%s: unsupported with an empty reason", m.Name())
			}
			continue
		}
		requireIdentical(t, m, 3)
	}
}

// TestDifferentialCatModels: definition-language models are never
// encoded, even under a supported name, and each says why.
func TestDifferentialCatModels(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "examples", "cat", "*.cat"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example cat models found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		m, err := cat.Compile(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if ok, reason := satgen.Supports(m); ok {
			t.Errorf("%s: cat model reported as natively supported", f)
		} else if reason == "" {
			t.Errorf("%s: unsupported with an empty reason", f)
		}
	}
}
