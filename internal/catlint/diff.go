package catlint

import (
	"fmt"
	"strings"

	"memsynth/internal/cat"
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/synth"
)

// DiffResult is a distinguishing litmus test between two models: an
// outcome of Test that AllowedBy admits and ForbiddenBy rejects. A nil
// *DiffResult from a diff means the models are equivalent up to the bound.
type DiffResult struct {
	Test    *litmus.Test
	Outcome *exec.Execution
	// AllowedBy / ForbiddenBy are the model names on each side of the
	// disagreement.
	AllowedBy, ForbiddenBy string
}

// String renders the distinguishing test and outcome for humans.
func (d *DiffResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "distinguishing test (allowed by %s, forbidden by %s):\n", d.AllowedBy, d.ForbiddenBy)
	b.WriteString(litmus.Format(d.Test))
	fmt.Fprintf(&b, "outcome: %s\n", d.Outcome.OutcomeString())
	return b.String()
}

// Diff compiles two cat definitions and searches for a litmus test that
// distinguishes them. See DiffModels.
func Diff(srcA, srcB string, opts Options) (*DiffResult, error) {
	a, err := cat.Compile(srcA)
	if err != nil {
		return nil, fmt.Errorf("first definition: %w", err)
	}
	b, err := cat.Compile(srcB)
	if err != nil {
		return nil, fmt.Errorf("second definition: %w", err)
	}
	return DiffModels(a, b, opts)
}

// DiffModels exhaustively searches the shared program space of two models
// — the union of their vocabularies, up to opts.Bound events — for an
// outcome one model allows and the other forbids, returning the first
// such (test, outcome) in the engine's deterministic generation order, or
// nil if the models agree on every outcome up to the bound (the paper's
// suite-comparison methodology as a lint).
//
// An outcome (an rf and co assignment) is allowed by a model iff the full
// model holds under some sc order of vocab.SCOrders: the sc order over FSC
// fences is auxiliary, not observable, so it is quantified existentially
// exactly as in the minimality criterion (internal/minimal).
func DiffModels(a, b memmodel.Model, opts Options) (*DiffResult, error) {
	opts = opts.withDefaults()
	vocab := mergeVocabs(a.Vocab(), b.Vocab())
	if len(vocab.Ops)+2*len(vocab.RMWOps) > opts.MaxVocab {
		return nil, fmt.Errorf("catlint: merged vocabulary of %s and %s has %d op templates, above the diff limit %d",
			a.Name(), b.Name(), len(vocab.Ops)+2*len(vocab.RMWOps), opts.MaxVocab)
	}
	axiomsA, axiomsB := a.Axioms(), b.Axioms()

	genOpts := synth.Options{
		MaxEvents:  opts.Bound,
		MaxThreads: opts.MaxThreads,
		MaxAddrs:   opts.MaxAddrs,
	}
	var found *DiffResult
	err := synth.EnumeratePrograms(vocab, genOpts, func(t *litmus.Test) bool {
		v := exec.NewStaticCtx(t, exec.NoPerturb).NewView()
		orders := vocab.SCOrders(t)
		exec.Enumerate(t, exec.EnumerateOptions{}, func(x *exec.Execution) bool {
			var allowedA, allowedB bool
			for _, sc := range orders {
				x.SC = sc
				v.Reset(x)
				allowedA = allowedA || holdsAll(axiomsA, v)
				allowedB = allowedB || holdsAll(axiomsB, v)
				if allowedA && allowedB {
					break
				}
			}
			x.SC = nil
			if allowedA == allowedB {
				return true
			}
			found = &DiffResult{Test: t, Outcome: x.Clone()}
			if allowedA {
				found.AllowedBy, found.ForbiddenBy = a.Name(), b.Name()
			} else {
				found.AllowedBy, found.ForbiddenBy = b.Name(), a.Name()
			}
			return false
		})
		return found == nil
	})
	if err != nil {
		return nil, err
	}
	return found, nil
}

func holdsAll(axioms []memmodel.Axiom, v *exec.View) bool {
	for i := range axioms {
		if !axioms[i].Holds(v) {
			return false
		}
	}
	return true
}

// mergeVocabs unions two synthesis vocabularies, preserving a's template
// order and appending b's novel templates.
func mergeVocabs(a, b memmodel.Vocab) memmodel.Vocab {
	var out memmodel.Vocab
	seenOp := make(map[litmus.Op]bool)
	for _, ops := range [][]litmus.Op{a.Ops, b.Ops} {
		for _, op := range ops {
			if !seenOp[op] {
				seenOp[op] = true
				out.Ops = append(out.Ops, op)
			}
		}
	}
	seenRMW := make(map[[2]litmus.Op]bool)
	for _, rmws := range [][][2]litmus.Op{a.RMWOps, b.RMWOps} {
		for _, pair := range rmws {
			if !seenRMW[pair] {
				seenRMW[pair] = true
				out.RMWOps = append(out.RMWOps, pair)
			}
		}
	}
	seenDep := make(map[litmus.DepType]bool)
	for _, deps := range [][]litmus.DepType{a.DepTypes, b.DepTypes} {
		for _, d := range deps {
			if !seenDep[d] {
				seenDep[d] = true
				out.DepTypes = append(out.DepTypes, d)
			}
		}
	}
	seenScope := make(map[litmus.Scope]bool)
	for _, scopes := range [][]litmus.Scope{a.Scopes, b.Scopes} {
		for _, s := range scopes {
			if !seenScope[s] {
				seenScope[s] = true
				out.Scopes = append(out.Scopes, s)
			}
		}
	}
	out.UsesSC = a.UsesSC || b.UsesSC
	return out
}
