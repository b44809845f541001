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

// runTier2 evaluates the model's axioms over every candidate execution of
// every generated program up to the bound and appends vacuous/redundant
// findings (and per-axiom verdicts) to r. posOf, when non-nil, supplies
// source positions for the axiom names.
//
// Semantics, relative to the bound (DESIGN.md §11):
//
//   - an axiom is vacuous iff it holds on every candidate execution of
//     every program up to the bound — it can never reject anything the
//     others would admit, so it contributes nothing to synthesis;
//   - an axiom is redundant iff every execution it rejects is also
//     rejected by some other axiom — the conjunction of the others
//     implies it. A witness execution that the axiom rejects alone is the
//     independence proof recorded in the report.
//
// An execution is an (rf, co) candidate, and the sc order is auxiliary
// (paper §6.3): an axiom rejects an execution only when it fails under
// every order of vocab.SCOrders, as in the minimality criterion.
//
// Both are bounded verdicts: "clean up to bound N" does not entail clean
// at N+1, and a reported redundancy may disappear at a larger bound.
func runTier2(r *Report, m memmodel.Model, posOf map[string]cat.Pos, opts Options) {
	vocab := m.Vocab()
	if len(vocab.Ops)+2*len(vocab.RMWOps) > opts.MaxVocab {
		return // tier 2 declined: vocabulary too large to enumerate
	}
	axioms := m.Axioms() // hoisted: Axioms() may allocate per call
	if len(axioms) == 0 {
		return
	}
	r.Tier2 = true
	r.Bound = opts.Bound

	checks := make([]AxiomCheck, len(axioms))
	for i, ax := range axioms {
		checks[i] = AxiomCheck{Name: ax.Name, Vacuous: true, Redundant: true}
	}
	undecided := func() bool {
		for _, c := range checks {
			if c.Vacuous || c.Redundant {
				return true
			}
		}
		return false
	}

	genOpts := synth.Options{
		MaxEvents:  opts.Bound,
		MaxThreads: opts.MaxThreads,
		MaxAddrs:   opts.MaxAddrs,
	}
	holds := make([]bool, len(axioms))
	// The error is impossible by construction (bounds are defaulted and
	// positive); a changed generator contract would surface in tests.
	_ = synth.EnumeratePrograms(vocab, genOpts, func(t *litmus.Test) bool {
		// One static context and one pooled view per program; Reset stamps
		// each candidate execution through it (the PR-4 amortization).
		// Deliberately no fast-admissibility filter (internal/admit) here:
		// these verdicts quantify over every candidate execution —
		// including ones no consistent extension admits — so pruning
		// refuted reads-from assignments would change vacuity/redundancy
		// answers, not just speed.
		ctx := exec.NewStaticCtx(t, exec.Perturb{})
		v := ctx.NewView()
		orders := vocab.SCOrders(t)
		exec.Enumerate(t, exec.EnumerateOptions{}, func(x *exec.Execution) bool {
			clear(holds)
			for _, sc := range orders {
				x.SC = sc
				v.Reset(x)
				for i := range axioms {
					holds[i] = holds[i] || axioms[i].Holds(v)
				}
			}
			fails, failIdx := 0, -1
			for i := range axioms {
				if !holds[i] {
					fails++
					failIdx = i
					checks[i].Vacuous = false
				}
			}
			if fails == 1 && checks[failIdx].Redundant {
				checks[failIdx].Redundant = false
				checks[failIdx].Witness = witness(t, x)
			}
			return undecided()
		})
		return undecided()
	})

	for i := range checks {
		// A vacuous axiom is trivially "redundant" too; report the
		// stronger verdict only.
		if checks[i].Vacuous {
			checks[i].Redundant = false
		}
	}
	r.Axioms = checks

	for _, c := range checks {
		pos := posOf[c.Name]
		switch {
		case c.Vacuous:
			r.Findings = append(r.Findings, Finding{
				Code: CodeVacuousAxiom, Severity: SevWarning,
				Line: pos.Line, Col: pos.Col,
				Msg: fmt.Sprintf("axiom %q rejects no execution of any program up to bound %d", c.Name, opts.Bound),
			})
		case c.Redundant && len(axioms) > 1:
			r.Findings = append(r.Findings, Finding{
				Code: CodeRedundantAxiom, Severity: SevWarning,
				Line: pos.Line, Col: pos.Col,
				Msg: fmt.Sprintf("axiom %q is implied by the other axioms up to bound %d: every execution it rejects is already rejected", c.Name, opts.Bound),
			})
		}
	}
}

// witness renders a (program, outcome) pair compactly for reports.
func witness(t *litmus.Test, x *exec.Execution) string {
	var b strings.Builder
	b.WriteString(strings.TrimRight(litmus.Format(t), "\n"))
	b.WriteString(" | outcome: ")
	b.WriteString(x.OutcomeString())
	return b.String()
}
