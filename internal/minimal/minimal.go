// Package minimal implements the paper's litmus-test minimality criterion
// (Definition 1, formalized as Fig. 5c): a (test, execution) pair is minimal
// with respect to a memory-model axiom if the execution violates that axiom
// — i.e. it is a forbidden outcome — while under *every* applicable
// instruction relaxation the (perturbed) execution satisfies the full model,
// i.e. the outcome becomes observable.
//
// Because the paper's pragmatic formulation equates outcomes with
// executions, the criterion is quantifier-free per (test, execution) for
// the observable relations rf and co. The sc order over sequentially
// consistent fences, however, is auxiliary: it is not observable, so a
// single sc choice must not decide forbiddenness (paper §6.3, Fig. 18/19).
// The paper works around this with a lone-sc-edge reversal trick (Fig. 19)
// and leaves the general treatment as future work; since our checker is an
// explicit enumerator, we implement the general solution directly:
//
//   - an outcome is forbidden for an axiom iff the axiom is violated under
//     every total sc order (exec.SCOrders), and
//   - a relaxed outcome is observable iff the full perturbed model holds
//     under some total sc order.
//
// With at most one sc edge this degenerates exactly to Fig. 19.
//
// The evaluation-context machinery is amortized for the synthesis explore
// hot path: a Checker binds to one program, computes the relaxation
// applications and the sc orders (exec.SCOrders) once, rebinds one pooled
// evaluation context (exec.StaticCtx plus an exec.View) per perturbation
// in place, and then stamps every execution of the program through those
// contexts. The contexts outlive the program: the next Bind rebinds them
// into the same buffers instead of allocating new ones.
package minimal

import (
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
)

// Verdict reports, for one execution of a test, which axioms it is a
// minimal violation of.
type Verdict struct {
	// ViolatedAxioms are the indices (into the model's Axioms()) of the
	// axioms the unperturbed execution violates under every sc order.
	ViolatedAxioms []int
	// AllRelaxationsObservable reports whether every applicable
	// relaxation application makes the outcome valid under the full
	// (perturbed) model for some sc order.
	AllRelaxationsObservable bool
	// FailingRelaxation, when AllRelaxationsObservable is false, is a
	// relaxation under which the outcome stays forbidden — the first in
	// application order for the one-shot Check, or the first the
	// Checker's fail-fast ordering tried for pooled checks.
	FailingRelaxation exec.Perturb
}

// MinimalFor returns the axiom indices the execution is a minimal violation
// of (empty if none).
func (v Verdict) MinimalFor() []int {
	if !v.AllRelaxationsObservable {
		return nil
	}
	return v.ViolatedAxioms
}

// Checker amortizes the static work of the minimality criterion across the
// executions of one program. Bind computes the relaxation applications and
// the sc orders (exec.SCOrders) and rebinds the base view's context; the view
// of each relaxation-application slot is rebound lazily, on the slot's
// first use in the program. The views and their contexts are kept across
// Bind calls, so a warm Checker rebinds in place instead of allocating.
// Check then rebuilds only the dynamic relations (rf, co, fr) per
// execution into the pooled views.
//
// A Checker is not safe for concurrent use; the synthesis engine gives
// each worker its own.
type Checker struct {
	m      memmodel.Model
	axioms []memmodel.Axiom
	usesSC bool

	t    *litmus.Test
	apps []exec.Perturb
	// order is the fail-fast try order over apps: when a relaxation keeps
	// the outcome forbidden (short-circuiting the observability sweep) it
	// moves to the front, so the executions that follow test the most
	// discriminating relaxation first. The order resets at Bind, keeping
	// per-program verdict streams independent of which worker processed
	// which earlier program (suites stay identical for any worker count).
	order    []int
	allSC    [][]int    // exec.SCOrders of the bound test (UsesSC models only)
	oneOrder [1][]int   // scratch for the single-order case
	base     *exec.View // pooled NoPerturb view
	slots    []appSlot  // slots[i] serves apps[i]; grows to the most apps seen
	program  uint64     // counts bind calls
	violated []bool     // scratch for the per-axiom forbidden sweep
	appsBuf  []exec.Perturb
	verdict  []int // backs the ViolatedAxioms of Check's verdicts
}

// appSlot is one relaxation application's pooled view.
type appSlot struct {
	*exec.View
	program uint64 // the bind its context was last rebound for
}

// NewChecker returns a Checker for model m; Bind points it at a program.
func NewChecker(m memmodel.Model) *Checker {
	return &Checker{m: m, axioms: m.Axioms(), usesSC: m.Vocab().UsesSC}
}

// Bind points the checker at test t, computing the relaxation applications
// of m to t into a slice the checker owns and resetting all per-program
// state.
func (c *Checker) Bind(t *litmus.Test) {
	c.appsBuf = memmodel.AppendApplications(c.appsBuf[:0], c.m, t)
	c.bind(t, c.appsBuf)
}

// Apps returns the relaxation applications of the bound test. The slice
// belongs to the checker: it is valid until the next Bind, which refills
// it in place, and callers must not modify it.
func (c *Checker) Apps() []exec.Perturb { return c.apps }

func (c *Checker) bind(t *litmus.Test, apps []exec.Perturb) {
	c.t = t
	c.apps = apps
	c.order = c.order[:0]
	for i := range apps {
		c.order = append(c.order, i)
	}
	c.allSC = nil
	if c.usesSC {
		c.allSC = exec.SCOrders(t)
	}
	if c.base == nil {
		c.base = new(exec.StaticCtx).NewView()
	}
	c.base.Rebind(t, exec.NoPerturb)
	c.program++
	for len(c.slots) < len(apps) {
		c.slots = append(c.slots, appSlot{View: new(exec.StaticCtx).NewView()})
	}
}

// ordersFor returns the sc orders to quantify over for execution x: the
// bound test's sc orders, or just x's own (possibly nil) order when there
// is nothing to quantify over.
func (c *Checker) ordersFor(x *exec.Execution) [][]int {
	if c.allSC != nil {
		return c.allSC
	}
	c.oneOrder[0] = x.SC
	return c.oneOrder[:]
}

// appView returns the pooled view for relaxation application i, rebinding
// its context on the slot's first use in this program. Rebinding is lazy
// because the observability sweep only runs for executions that violate
// some axiom — a small minority — and even then usually short-circuits.
func (c *Checker) appView(i int) *exec.View {
	s := &c.slots[i]
	if s.program != c.program {
		s.Rebind(c.t, c.apps[i])
		s.program = c.program
	}
	return s.View
}

// Check evaluates the minimality criterion for execution x of the bound
// test. x.SC is treated as existentially quantified for models that use an
// sc order; x is restored before Check returns. The verdict's
// ViolatedAxioms (and so MinimalFor) lives in a buffer the checker owns:
// it is valid until the next Check, so a caller that keeps it must copy
// it first.
func (c *Checker) Check(x *exec.Execution) Verdict {
	var verdict Verdict
	orders := c.ordersFor(x)
	savedSC := x.SC
	defer func() { x.SC = savedSC }()

	// Forbidden: violated under every sc order. Stop sweeping orders once
	// every axiom has been observed to hold under some order.
	if cap(c.violated) < len(c.axioms) {
		c.violated = make([]bool, len(c.axioms))
	}
	violated := c.violated[:len(c.axioms)]
	remaining := len(c.axioms)
	for i := range violated {
		violated[i] = true
	}
	for _, sc := range orders {
		x.SC = sc
		c.base.Reset(x)
		for i, a := range c.axioms {
			if violated[i] && a.Holds(c.base) {
				violated[i] = false
				remaining--
			}
		}
		if remaining == 0 {
			return verdict
		}
	}
	c.verdict = c.verdict[:0]
	for i, bad := range violated {
		if bad {
			c.verdict = append(c.verdict, i)
		}
	}
	verdict.ViolatedAxioms = c.verdict

	// Observable under relaxation: the whole perturbed model holds for
	// some sc order. This requirement does not depend on which axiom is
	// targeted (paper Fig. 5c), so one sweep answers the criterion for
	// every violated axiom at once. Applications are tried in fail-fast
	// order; a failing application short-circuits and moves to the front.
	for pos := 0; pos < len(c.order); pos++ {
		ai := c.order[pos]
		pv := c.appView(ai)
		observable := false
		for _, sc := range orders {
			x.SC = sc
			pv.Reset(x)
			if c.valid(pv) {
				observable = true
				break
			}
		}
		if !observable {
			verdict.FailingRelaxation = c.apps[ai]
			copy(c.order[1:pos+1], c.order[:pos])
			c.order[0] = ai
			return verdict
		}
	}
	verdict.AllRelaxationsObservable = true
	return verdict
}

// valid reports whether v satisfies every axiom (memmodel.Valid over the
// cached axiom slice).
func (c *Checker) valid(v *exec.View) bool {
	for _, a := range c.axioms {
		if !a.Holds(v) {
			return false
		}
	}
	return true
}

// Check evaluates the minimality criterion for execution x against model m.
// apps must be the relaxation applications of m to x.Test (as computed by
// memmodel.Applications); passing them in lets callers amortize the
// computation across the executions of one test. x.SC is treated as
// existentially quantified for models that use an sc order; x is restored
// before Check returns. Callers checking many executions of many programs
// should hold a Checker instead, which amortizes the evaluation contexts.
func Check(m memmodel.Model, apps []exec.Perturb, x *exec.Execution) Verdict {
	c := NewChecker(m)
	c.bind(x.Test, apps)
	return c.Check(x)
}

// IsMinimal reports whether execution x of its test is a minimal violation
// of the named axiom of m.
func IsMinimal(m memmodel.Model, axiom string, x *exec.Execution) (bool, error) {
	ax, err := memmodel.AxiomByName(m, axiom)
	if err != nil {
		return false, err
	}
	apps := memmodel.Applications(m, x.Test)
	verdict := Check(m, apps, x)
	if !verdict.AllRelaxationsObservable {
		return false, nil
	}
	axioms := m.Axioms()
	for _, i := range verdict.ViolatedAxioms {
		if axioms[i].Name == ax.Name {
			return true, nil
		}
	}
	return false, nil
}
