package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/store"
	"memsynth/internal/synth"
)

// The output oracle. Every suite a workload produces is checked against
// pins.json: the store digest of its request and, per suite (the union and
// each axiom), the test count and the SHA-256 of its litmus text. Both
// requests are additionally checked against the paper's published counts,
// which do not depend on this engine at all.

type suitePin struct {
	Tests  int    `json:"tests"`
	SHA256 string `json:"sha256"`
}

type requestPin struct {
	Digest string              `json:"digest"`
	Suites map[string]suitePin `json:"suites"`
}

type pinFile struct {
	// Engine pins the single-node results of the engine requests, keyed by
	// engineSpec.pin.
	Engine map[string]requestPin `json:"engine"`
}

func loadPins(path string) (*pinFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pins: %w", err)
	}
	var p pinFile
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("pins: %s: %w", path, err)
	}
	return &p, nil
}

// paperCounts are the paper's suite sizes (Fig. 13b saturation counts and
// the union sizes the repository reproduces), independent of any engine.
var paperCounts = map[string]map[string]int{
	"tso7-a1": {store.UnionSuite: 14, "sc_per_loc": 10, "rmw_atomicity": 4},
	"power5":  {store.UnionSuite: 54, "sc_per_loc": 10, "rmw_atomicity": 4},
}

// engineSpec is one synthesis request of the workloads.
type engineSpec struct {
	name  string // workload name
	pin   string // key in pinFile.Engine and paperCounts
	model string
	opts  synth.Options
}

// The engine requests, as the memsynth CLI builds them (-threads 4 and
// -addrs 3 unless given); every engine run uses two workers.
var (
	tso7a1 = engineSpec{name: "tso7-a1", pin: "tso7-a1", model: "tso", opts: synth.Options{MaxEvents: 7, MaxThreads: 4, MaxAddrs: 1, Admit: "auto", Workers: 2}}
	power5 = engineSpec{name: "cluster-power5", pin: "power5", model: "power", opts: synth.Options{MaxEvents: 5, MaxThreads: 4, MaxAddrs: 3, Workers: 2}}
)

// formatSuite renders a suite exactly as the store and the CLI's
// -format litmus path do.
func formatSuite(s *synth.Suite) string {
	specs := make([]*litmus.Spec, len(s.Entries))
	for i, e := range s.Entries {
		specs[i] = &litmus.Spec{Test: e.Test, Forbid: e.Exec.OutcomeConds()}
	}
	return litmus.FormatSuite(specs)
}

// suiteTexts formats the union and every per-axiom suite of res.
func suiteTexts(res *synth.Result) map[string]string {
	texts := map[string]string{store.UnionSuite: formatSuite(res.Union)}
	for name, s := range res.PerAxiom {
		texts[name] = formatSuite(s)
	}
	return texts
}

func suiteSizes(res *synth.Result) map[string]int {
	sizes := map[string]int{store.UnionSuite: len(res.Union.Entries)}
	for name, s := range res.PerAxiom {
		sizes[name] = len(s.Entries)
	}
	return sizes
}

func sha(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// pinOf records a result, whose suites format to texts, as a pin.
func pinOf(res *synth.Result, texts map[string]string) requestPin {
	p := requestPin{Digest: store.Digest(res.Model, res.ModelDigest, res.Options), Suites: make(map[string]suitePin)}
	sizes := suiteSizes(res)
	for name, text := range texts {
		p.Suites[name] = suitePin{Tests: sizes[name], SHA256: sha(text)}
	}
	return p
}

// checkResult compares a complete result, whose suites format to texts,
// with its pin.
func checkResult(pin requestPin, res *synth.Result, texts map[string]string) error {
	if res.Stats.Interrupted {
		return fmt.Errorf("%s: result is partial", res.Model)
	}
	got := pinOf(res, texts)
	if got.Digest != pin.Digest {
		return fmt.Errorf("%s: digest %s, pinned %s", res.Model, got.Digest, pin.Digest)
	}
	return checkSuites(pin, got.Suites)
}

// checkEngineResult is checkResult plus the paper's counts.
func checkEngineResult(spec engineSpec, pin requestPin, res *synth.Result, texts map[string]string) error {
	if err := checkResult(pin, res, texts); err != nil {
		return err
	}
	return checkPaper(spec, suiteSizes(res))
}

// checkPaper compares suite sizes (name → tests) with the paper's counts.
func checkPaper(spec engineSpec, sizes map[string]int) error {
	for name, want := range paperCounts[spec.pin] {
		if sizes[name] != want {
			return fmt.Errorf("%s: suite %s has %d tests, the paper has %d", spec.pin, name, sizes[name], want)
		}
	}
	return nil
}

func checkSuites(pin requestPin, got map[string]suitePin) error {
	if len(got) != len(pin.Suites) {
		return fmt.Errorf("digest %.12s: %d suites, pinned %d", pin.Digest, len(got), len(pin.Suites))
	}
	for name, want := range pin.Suites {
		if g, ok := got[name]; !ok || g != want {
			return fmt.Errorf("digest %.12s: suite %s is %+v, pinned %+v", pin.Digest, name, g, want)
		}
	}
	return nil
}

// checkCounts compares suite sizes (name → tests) with the pin's.
func checkCounts(pin requestPin, sizes map[string]int) error {
	if len(sizes) != len(pin.Suites) {
		return fmt.Errorf("digest %.12s: %d suites, pinned %d", pin.Digest, len(sizes), len(pin.Suites))
	}
	for name, want := range pin.Suites {
		if sizes[name] != want.Tests {
			return fmt.Errorf("digest %.12s: suite %s has %d tests, pinned %d", pin.Digest, name, sizes[name], want.Tests)
		}
	}
	return nil
}

// writePinFile recomputes every pin with plain single-node synthesis and
// writes the oracle file. It refuses when an engine result disagrees with
// the paper's counts.
func writePinFile(path string) error {
	p := pinFile{Engine: make(map[string]requestPin)}
	for _, spec := range []engineSpec{tso7a1, power5} {
		m, err := memmodel.ByName(spec.model)
		if err != nil {
			return err
		}
		res, err := synth.SynthesizeContext(context.Background(), m, spec.opts)
		if err != nil {
			return err
		}
		texts := suiteTexts(res)
		pin := pinOf(res, texts)
		if err := checkEngineResult(spec, pin, res, texts); err != nil {
			return err
		}
		p.Engine[spec.pin] = pin
		fmt.Fprintf(os.Stderr, "pinned %s (%d tests)\n", spec.pin, len(res.Union.Entries))
	}
	raw, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
