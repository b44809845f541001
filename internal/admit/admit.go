// Package admit implements per-model fast admissibility: a polynomial
// saturation check that decides, for one reads-from assignment of a
// program, whether *any* coherence order can extend it into a minimal
// litmus test. The synthesis explore phase consults it once per rf
// assignment and skips the factorial coherence-order cross-product when
// the answer is no — the regime ("How Hard is Weak-Memory Testing?",
// Chakraborty et al.; "Optimal Reads-From Consistency Checking", Tunç et
// al.) where rf-consistency is polynomial while full execution
// enumeration is not.
//
// The check is a sound refutation filter, never a decision procedure: a
// minimal execution (Definition 1) must be observable — valid under the
// full perturbed model — for *every* applicable instruction relaxation,
// each sharing the one coherence order of the execution. Saturation
// derives, per relaxation application, the coherence edges any valid
// extension is forced to contain (closure over the application's
// acyclicity graphs); a contradiction proves no coherence order is valid
// under that application, so no extension of the rf assignment is
// observable there and the whole subtree is skipped. When every
// application admits some order individually, the union of their forced
// edges must still be satisfied by the single shared order, so a cyclic
// union refutes too.
//
// The forced edges also prune an admitted assignment: every coherence
// order it extends to is enumerated and counted, but one that breaks a
// forced edge (Extends) is not observable under the application that
// forced the edge, so it skips the minimality check. Everything else is
// re-confirmed by minimal.Checker exactly as before — which is why suites
// and store digests are byte-identical with the filter on or off
// (DESIGN.md §15).
//
// The graphs come from the model itself: an axiom built by
// memmodel.Acyclic declares acyclic(static ∪ rf ∪ co ∪ fr), or with rfe
// in place of rf, and this package saturates that declaration in each
// application's static context; the minimality check evaluates the same
// declaration through the axiom's Holds. No model is named here. All of a
// model's graphs are saturated jointly over one shared forced-coherence
// set, which is how a store-buffer model's causality graph (rfe ∪ co ∪ fr
// ∪ ppo ∪ fence order) replaces enumerating its write→read reorderings.
// A model's other axioms are ignored, which weakens refutation but never
// soundness. A model that declares no graph — including every
// cat-compiled model, whatever its name — falls back to plain enumeration
// (DESIGN.md §15 lists which builtins do).
//
// Each graph's static part is read from the StaticMemo slot that the
// axiom's Holds fills, in a static context the Checker keeps per
// relaxation-application slot and rebinds in place per program
// (DESIGN.md §10), so neither the contexts nor the graphs are rebuilt
// from scratch for each program.
package admit

import (
	"fmt"
	"math/bits"
	"sort"

	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/relation"
)

// graph is one acyclicity axiom of the model (memmodel.Graph) in one
// relaxation application: its static base edges and the rf-inclusion rule.
// Every such graph contains the full co and fr relations (the saturation
// rules rely on co ⊆ graph and fr ⊆ graph to justify forced edges).
type graph struct {
	base       relation.Rel
	rfExternal bool // only the cross-thread rf edges (rfe) are in the graph
}

// Supports reports whether model m declares an acyclicity graph for fast
// admissibility to saturate, with a human-readable reason when it does
// not. Only the graphs are saturated: ignoring the model's other axioms
// costs pruning power but never soundness (refuting a weaker axiom set
// still refutes the model).
func Supports(m memmodel.Model) (bool, string) {
	if len(declaredGraphs(m)) == 0 {
		return false, fmt.Sprintf("model %q declares no acyclic(static ∪ rf ∪ co ∪ fr) axiom graph", m.Name())
	}
	return true, ""
}

// declaredGraphs returns the graphs m's axioms declare, in axiom order.
func declaredGraphs(m memmodel.Model) []*memmodel.Graph {
	var gs []*memmodel.Graph
	for _, a := range m.Axioms() {
		if a.Graph != nil {
			gs = append(gs, a.Graph)
		}
	}
	return gs
}

// Capability describes one model's fast-admissibility support, for
// capability reporting (memsynthd's GET /v1/admit).
type Capability struct {
	Model     string `json:"model"`
	Supported bool   `json:"supported"`
	// Reason explains an unsupported model (empty when supported).
	Reason string `json:"reason,omitempty"`
}

// Models returns the capability matrix over the builtin models, sorted by
// name.
func Models() []Capability {
	var caps []Capability
	for _, m := range memmodel.All() {
		ok, reason := Supports(m)
		caps = append(caps, Capability{Model: m.Name(), Supported: ok, Reason: reason})
	}
	sort.Slice(caps, func(i, j int) bool { return caps[i].Model < caps[j].Model })
	return caps
}

// appCtx is one relaxation application's slot: a pooled static context,
// rebound to the application on its first use in each program, and the
// model's graphs in it.
type appCtx struct {
	exec.StaticCtx
	graphs  []graph
	program uint64 // the Bind the context was last rebound for
}

// Checker decides fast admissibility for the rf assignments of one bound
// program. It keeps one static context per relaxation-application slot
// across programs: Bind only records the program, and a slot's context is
// rebound in place to its application on first use (mirroring
// minimal.Checker), so a warm Checker allocates nothing per program.
// Decide then runs pure bitset saturation per assignment. A Checker is
// not safe for concurrent use; the synthesis engine gives each worker its
// own.
type Checker struct {
	decls  []*memmodel.Graph
	nAddrs int

	t    *litmus.Test
	n    int
	apps []exec.Perturb
	// order is the fail-fast try order over apps: a refuting application
	// moves to the front so the next rf assignment tries the most
	// discriminating relaxation first. Refutation is existential over
	// apps, so the order affects speed only, never the verdict — and it
	// resets at Bind, keeping per-program behavior deterministic for any
	// worker count.
	order   []int
	slots   []*appCtx // slots[i] serves apps[i]; grows to the most apps seen
	program uint64    // counts Bind calls

	// Saturation scratch, sized to the bound test's universe.
	fco     relation.Rel // forced coherence edges of the current app
	ffr     relation.Rel // forced from-reads edges of the current app
	cl      relation.Rel // per-graph closure
	unionCo relation.Rel // forced co edges across all apps of one Decide
}

// NewChecker returns a Checker for model m, or nil when the model declares
// no acyclicity graph (see Supports).
func NewChecker(m memmodel.Model) *Checker {
	decls := declaredGraphs(m)
	if len(decls) == 0 {
		return nil
	}
	return &Checker{decls: decls}
}

// Bind points the checker at test t with the model's relaxation
// applications to it (as computed by memmodel.Applications — the synthesis
// engine passes minimal.Checker.Apps so the two layers always agree).
func (c *Checker) Bind(t *litmus.Test, apps []exec.Perturb) {
	c.t = t
	c.n = len(t.Events)
	c.nAddrs = t.NumAddrs()
	c.apps = apps
	c.program++
	c.order = c.order[:0]
	for i := range apps {
		c.order = append(c.order, i)
	}
	for len(c.slots) < len(apps) {
		c.slots = append(c.slots, &appCtx{graphs: make([]graph, len(c.decls))})
	}
	if c.fco.N() != c.n {
		c.fco.Resize(c.n)
		c.ffr.Resize(c.n)
		c.cl.Resize(c.n)
		c.unionCo.Resize(c.n)
	}
}

// appCtxFor returns application i's slot, rebinding its context on the
// slot's first use in this program. Rebinding is lazy because the
// fail-fast order usually refutes with the front application alone.
func (c *Checker) appCtxFor(i int) *appCtx {
	a := c.slots[i]
	if a.program != c.program {
		a.Rebind(c.t, c.apps[i])
		for k, d := range c.decls {
			a.graphs[k] = graph{base: d.Static(&a.StaticCtx), rfExternal: d.RFExternal()}
		}
		a.program = c.program
	}
	return a
}

// Decide reports whether some coherence order extending rf (indexed by
// event ID, -1 = initial) could yield a minimal execution. False is a
// proof that none can — the caller may skip every extension; true is
// merely "not refuted" and the extensions must be enumerated, and those
// that Extends accepts checked as usual.
func (c *Checker) Decide(rf []int) bool {
	if c.t == nil {
		panic("admit: Decide before Bind")
	}
	c.unionCo.Clear()
	for pos := 0; pos < len(c.order); pos++ {
		ai := c.order[pos]
		if c.saturate(c.appCtxFor(ai), rf) {
			copy(c.order[1:pos+1], c.order[:pos])
			c.order[0] = ai
			return false
		}
		c.unionCo.UnionWith(c.fco)
	}
	// Each application admits some coherence order on its own, but a
	// minimal execution carries a single order valid under all of them,
	// which must contain every forced edge at once.
	if len(c.apps) > 1 && !c.unionCo.Acyclic() {
		return false
	}
	return true
}

// Extends reports whether the per-address coherence order co (laid out as
// exec.Execution.CO) contains every coherence edge the last Decide forced.
// It is meaningful only while extending an rf assignment Decide admitted.
// False is a proof that the execution is not observable under the
// relaxation application that forced the missing edge, so it is not
// minimal and the caller may skip its minimality check.
func (c *Checker) Extends(co [][]int) bool {
	for _, ws := range co {
		var before relation.Set
		for _, w := range ws {
			if !c.unionCo.Successors(w).Intersect(before).IsEmpty() {
				return false
			}
			before = before.Add(w)
		}
	}
	return true
}

// saturate runs the closure fixpoint for one application and reports
// whether it refutes the rf assignment (no coherence order satisfies the
// application's acyclicity graphs). On a false return c.fco holds the
// edges every satisfying order must contain.
func (c *Checker) saturate(a *appCtx, rf []int) bool {
	c.fco.Clear()
	c.ffr.Clear()
	reads, live, ext := a.Reads(), a.Live(), a.Ext()

	// An initial (non-orphaned) read is from-reads-before every live write
	// to its address, for every coherence order.
	for m := reads; m != 0; m &= m - 1 {
		r := bits.TrailingZeros64(uint64(m))
		if rf[r] < 0 {
			c.ffr.UnionRow(r, a.LiveWrites(c.t.Events[r].Addr))
		}
	}

	for {
		progress := false
		for _, g := range a.graphs {
			// Lower bound on the graph of any satisfying execution: static
			// base, the rf edges the graph includes, and everything forced
			// so far.
			c.cl.CopyFrom(g.base)
			for m := reads; m != 0; m &= m - 1 {
				r := bits.TrailingZeros64(uint64(m))
				src := rf[r]
				if src < 0 || !live.Has(src) {
					continue // initial or orphaned (source removed by RI)
				}
				if g.rfExternal && !ext.Has(src, r) {
					continue
				}
				c.cl.Add(src, r)
			}
			c.cl.UnionWith(c.fco)
			c.cl.UnionWith(c.ffr)
			c.cl.CloseIn()
			if !c.cl.Irreflexive() {
				return true // forced edges already close a cycle
			}

			// (ww) A path w1 →+ w2 between live same-address writes forces
			// co(w1, w2): the opposite orientation would put the co edge
			// w2→w1 on the path's cycle.
			for addr := 0; addr < c.nAddrs; addr++ {
				ws := a.LiveWrites(addr)
				if ws.Size() < 2 {
					continue
				}
				for m1 := ws; m1 != 0; m1 &= m1 - 1 {
					w1 := bits.TrailingZeros64(uint64(m1))
					reach := c.cl.Successors(w1).Intersect(ws).Remove(w1)
					for m2 := reach; m2 != 0; m2 &= m2 - 1 {
						w2 := bits.TrailingZeros64(uint64(m2))
						ok, p := c.force(a, rf, w1, w2)
						if !ok {
							return true
						}
						progress = progress || p
					}
				}
			}

			for m := reads; m != 0; m &= m - 1 {
				r := bits.TrailingZeros64(uint64(m))
				src := rf[r]
				if src < 0 || !live.Has(src) {
					continue
				}
				rfInGraph := !g.rfExternal || ext.Has(src, r)
				for mw := a.LiveWrites(c.t.Events[r].Addr).Remove(src); mw != 0; mw &= mw - 1 {
					w := bits.TrailingZeros64(uint64(mw))
					// (wr) A path w →+ r forces co(w, src): co(src, w)
					// would derive fr(r, w), closing the cycle w →+ r → w.
					if c.cl.Has(w, r) {
						ok, p := c.force(a, rf, w, src)
						if !ok {
							return true
						}
						progress = progress || p
					}
					// (rw) A path r →+ w forces co(src, w) when the graph
					// contains the rf edge src → r: co(w, src) would close
					// the cycle r →+ w → src → r.
					if rfInGraph && c.cl.Has(r, w) {
						ok, p := c.force(a, rf, src, w)
						if !ok {
							return true
						}
						progress = progress || p
					}
				}
			}
		}
		if !progress {
			return false
		}
	}
}

// force records the forced edge co(w1, w2), propagating the from-reads
// edges it implies (every read of w1 is fr-before w2). It reports
// (consistent, progress): consistent is false when the opposite
// orientation was already forced — the contradiction that refutes the rf
// assignment.
func (c *Checker) force(a *appCtx, rf []int, w1, w2 int) (bool, bool) {
	if c.fco.Has(w1, w2) {
		return true, false
	}
	if c.fco.Has(w2, w1) {
		return false, false
	}
	c.fco.Add(w1, w2)
	for m := a.Reads(); m != 0; m &= m - 1 {
		r := bits.TrailingZeros64(uint64(m))
		if rf[r] == w1 {
			c.ffr.Add(r, w2)
		}
	}
	return true, true
}
