package satgen_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"memsynth/internal/cat"
	"memsynth/internal/memmodel"
	"memsynth/internal/store"
	"memsynth/internal/synth"
	"memsynth/internal/synth/satgen"
)

// forceSAT lowers the execution-count threshold so every program goes
// through the SAT guide, restoring it when the test ends.
func forceSAT(t *testing.T) {
	t.Helper()
	old := *satgen.ExecThreshold
	*satgen.ExecThreshold = 1
	t.Cleanup(func() { *satgen.ExecThreshold = old })
}

func runBackend(t *testing.T, m memmodel.Model, backend string, bound int) *synth.Result {
	t.Helper()
	opts := synth.Options{MaxEvents: bound, Backend: backend, Workers: 2}
	res, err := synth.SynthesizeContext(context.Background(), m, opts)
	if err != nil {
		t.Fatalf("%s/%s@%d: %v", m.Name(), backend, bound, err)
	}
	if res.Stats.Interrupted {
		t.Fatalf("%s/%s@%d: interrupted", m.Name(), backend, bound)
	}
	if res.Backend != backend {
		t.Fatalf("%s@%d: Result.Backend = %q, want %q", m.Name(), bound, res.Backend, backend)
	}
	return res
}

// requireIdentical asserts the two results encode to byte-identical stored
// suites under the same digest.
func requireIdentical(t *testing.T, m memmodel.Model, bound int, enum, sat *synth.Result) {
	t.Helper()
	se, err := store.Encode(enum)
	if err != nil {
		t.Fatalf("encode enum: %v", err)
	}
	ss, err := store.Encode(sat)
	if err != nil {
		t.Fatalf("encode sat: %v", err)
	}
	if se.Manifest.Digest != ss.Manifest.Digest {
		t.Errorf("%s@%d: digests differ: enum %s, sat %s",
			m.Name(), bound, se.Manifest.Digest, ss.Manifest.Digest)
	}
	if len(se.Texts) != len(ss.Texts) {
		t.Fatalf("%s@%d: suite count differs: enum %d, sat %d",
			m.Name(), bound, len(se.Texts), len(ss.Texts))
	}
	for name, wantText := range se.Texts {
		gotText, ok := ss.Texts[name]
		if !ok {
			t.Fatalf("%s@%d: sat result missing suite %q", m.Name(), bound, name)
		}
		if gotText != wantText {
			t.Errorf("%s@%d: suite %q text differs between backends", m.Name(), bound, name)
		}
		if !reflect.DeepEqual(se.Manifest.Suites[name].Entries, ss.Manifest.Suites[name].Entries) {
			t.Errorf("%s@%d: suite %q manifest entries differ between backends", m.Name(), bound, name)
		}
	}
	if se.Manifest.Backend != "enum" || ss.Manifest.Backend != "sat" {
		t.Errorf("%s@%d: manifest backends = %q, %q; want enum, sat",
			m.Name(), bound, se.Manifest.Backend, ss.Manifest.Backend)
	}
}

// TestDifferentialNative drives the natively-encoded models through the
// SAT guide on every program and demands byte-identical suites and
// digests against the enumerative backend.
func TestDifferentialNative(t *testing.T) {
	forceSAT(t)
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
			t.Fatalf("expected native support for %s, got fallback: %s", name, reason)
		}
		requireIdentical(t, m, bound, runBackend(t, m, "enum", bound), runBackend(t, m, "sat", bound))
	}
}

// TestDifferentialAllBuiltins covers every builtin at a small bound: the
// unsupported ones exercise the wholesale enum fallback inside the sat
// backend, which must still be byte-identical (and still stamped "sat").
func TestDifferentialAllBuiltins(t *testing.T) {
	forceSAT(t)
	for _, m := range memmodel.All() {
		requireIdentical(t, m, 3, runBackend(t, m, "enum", 3), runBackend(t, m, "sat", 3))
	}
}

// TestDifferentialCatModels compiles the example cat definitions; the SAT
// backend must fall back (definition-language models are unsupported) and
// stay byte-identical.
func TestDifferentialCatModels(t *testing.T) {
	forceSAT(t)
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
			t.Fatalf("%s: expected SAT fallback for cat model, got native support", f)
		} else if reason == "" {
			t.Fatalf("%s: fallback with empty reason", f)
		}
		requireIdentical(t, m, 4, runBackend(t, m, "enum", 4), runBackend(t, m, "sat", 4))
	}
}

// TestSATCountForbidden: CountForbidden keeps the sat backend on the
// enumeration path (a guide surfaces only minimal witnesses, which would
// undercount the census), so it reports the enum backend's count of
// distinct forbidden outcomes and the same suites.
func TestSATCountForbidden(t *testing.T) {
	forceSAT(t)
	m, err := memmodel.ByName("tso")
	if err != nil {
		t.Fatal(err)
	}
	const bound = 4
	run := func(backend string) *synth.Result {
		opts := synth.Options{MaxEvents: bound, Backend: backend, Workers: 2, CountForbidden: true}
		res, err := synth.SynthesizeContext(context.Background(), m, opts)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		return res
	}
	enum, sat := run("enum"), run("sat")
	if enum.Stats.ForbiddenOutcomes == 0 {
		t.Fatal("enum run counted no forbidden outcomes")
	}
	if sat.Stats.ForbiddenOutcomes != enum.Stats.ForbiddenOutcomes {
		t.Errorf("sat ForbiddenOutcomes = %d, enum = %d",
			sat.Stats.ForbiddenOutcomes, enum.Stats.ForbiddenOutcomes)
	}
	requireIdentical(t, m, bound, enum, sat)
}

// TestSATCancellation: the SAT backend honors context deadlines, returning
// partial suites with Stats.Interrupted and no error.
func TestSATCancellation(t *testing.T) {
	forceSAT(t)
	m, err := memmodel.ByName("tso")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res, err := synth.SynthesizeContext(ctx, m, synth.Options{MaxEvents: 7, Backend: "sat", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Interrupted {
		t.Error("expected Stats.Interrupted on deadline-bounded sat run")
	}
	if res.Backend != "sat" {
		t.Errorf("Result.Backend = %q, want sat", res.Backend)
	}
}

// TestBackendDigestIndependence proves (not just asserts by convention)
// that backend choice never shifts a store digest, and that unknown names
// are rejected early with the known-backend list.
func TestBackendDigestIndependence(t *testing.T) {
	m, err := memmodel.ByName("tso")
	if err != nil {
		t.Fatal(err)
	}
	base := synth.Options{MaxEvents: 4}
	withSAT := base
	withSAT.Backend = "sat"
	if store.DigestModel(m, base) != store.DigestModel(m, withSAT) {
		t.Error("Options.Backend changed the store digest")
	}
	if got := withSAT.Normalize().Backend; got != "" {
		t.Errorf("Normalize kept Backend = %q", got)
	}
	bad := base
	bad.Backend = "minisat"
	err = bad.Validate()
	if err == nil {
		t.Fatal("Validate accepted unknown backend")
	}
	for _, want := range []string{"minisat", "enum", "sat"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-backend error %q does not mention %q", err, want)
		}
	}
}
