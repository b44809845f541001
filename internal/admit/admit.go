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
// Algorithms are registered for the builtin sc and tso models only. The
// tso check folds the store buffer into the closure: its causality graph
// (rfe ∪ co ∪ fr ∪ ppo ∪ mfence-order, with ppo = po minus write→read)
// is saturated jointly with the sc_per_loc graph over one shared forced
// coherence set, rather than enumerating coherence and fence
// permutations. Models without a registered algorithm — power, armv7,
// and every cat-compiled model, including one *named* "sc" or "tso"
// (gated on memmodel.SourceOf, not the name) — fall back to plain
// enumeration.
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

// graph is one acyclicity constraint of a perturbed model, split into its
// execution-independent base edges and the rf-inclusion rule. Every
// registered graph must contain the full co and fr relations (the
// saturation rules rely on co ⊆ graph and fr ⊆ graph to justify forced
// edges).
type graph struct {
	// base holds the static edges (program-order fragments, fence
	// orderings) of the perturbed test.
	base relation.Rel
	// rfExternal restricts the rf edges folded into the graph to
	// cross-thread ones (tso causality uses rfe, not rf).
	rfExternal bool
}

// graphsFunc derives a model's acyclicity graphs from the static
// evaluation context of one relaxation application. The view is used for
// its static accessors only (it is never Reset).
type graphsFunc func(v *exec.View) []graph

// algorithms maps builtin model names to their graph builders. Only the
// acyclicity axioms appear: ignoring rmw_atomicity costs pruning power but
// never soundness (refuting a weaker axiom set still refutes the model).
var algorithms = map[string]graphsFunc{
	"sc":  scGraphs,
	"tso": tsoGraphs,
}

// scGraphs: sc_order = acyclic(com ∪ po), i.e. one graph with base po and
// all rf edges.
func scGraphs(v *exec.View) []graph {
	return []graph{{base: v.PO()}}
}

// tsoGraphs: sc_per_loc = acyclic(com ∪ po_loc) and causality =
// acyclic(rfe ∪ co ∪ fr ∪ ppo ∪ mfence-order) with ppo = po \ (W×R).
// Saturating both over one shared forced-co set is what replaces the
// store-buffer (write→read reordering) permutations.
func tsoGraphs(v *exec.View) []graph {
	ppo := v.PO().Minus(relation.Cross(v.N(), v.Writes(), v.Reads()))
	ppo.UnionWith(v.FenceRel(litmus.FMFence))
	return []graph{
		{base: v.POLoc()},
		{base: ppo, rfExternal: true},
	}
}

// Supports reports whether model m has a registered fast-admissibility
// algorithm, with a human-readable reason when it does not. Only builtin
// models qualify: a compiled model shadowing a builtin name has its own
// semantics and must take the enumeration fallback.
func Supports(m memmodel.Model) (bool, string) {
	if src, _ := memmodel.SourceOf(m); src != "builtin" {
		return false, fmt.Sprintf("model %q is %s-compiled; fast admissibility covers only the builtin native models", m.Name(), src)
	}
	if _, ok := algorithms[m.Name()]; !ok {
		return false, fmt.Sprintf("model %q has no registered fast-admissibility algorithm", m.Name())
	}
	return true, ""
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

// appCtx is the per-relaxation-application static state: the perturbed
// graphs plus the live-event classification the saturation rules consult.
type appCtx struct {
	view   *exec.View
	live   relation.Set
	reads  relation.Set
	graphs []graph
	// liveWrites[a] is the set of live writes to address a.
	liveWrites []relation.Set
}

// Checker decides fast admissibility for the rf assignments of one bound
// program. Bind computes the relaxation applications' static contexts
// lazily (mirroring minimal.Checker); Decide then runs pure bitset
// saturation per assignment. A Checker is not safe for concurrent use;
// the synthesis engine gives each worker its own.
type Checker struct {
	model  memmodel.Model
	build  graphsFunc
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
	order  []int
	perApp []*appCtx

	// Saturation scratch, sized to the bound test's universe.
	fco     relation.Rel // forced coherence edges of the current app
	ffr     relation.Rel // forced from-reads edges of the current app
	cl      relation.Rel // per-graph closure
	unionCo relation.Rel // forced co edges across all apps of one Decide
}

// NewChecker returns a Checker for model m, or nil when the model has no
// registered algorithm (see Supports).
func NewChecker(m memmodel.Model) *Checker {
	if ok, _ := Supports(m); !ok {
		return nil
	}
	return &Checker{model: m, build: algorithms[m.Name()]}
}

// Bind points the checker at test t with the model's relaxation
// applications to it (as computed by memmodel.Applications — the synthesis
// engine passes minimal.Checker.Apps so the two layers always agree).
func (c *Checker) Bind(t *litmus.Test, apps []exec.Perturb) {
	c.t = t
	c.n = len(t.Events)
	c.nAddrs = t.NumAddrs()
	c.apps = apps
	c.order = c.order[:0]
	for i := range apps {
		c.order = append(c.order, i)
	}
	c.perApp = c.perApp[:0]
	for range apps {
		c.perApp = append(c.perApp, nil)
	}
	if c.fco.N() != c.n {
		c.fco = relation.New(c.n)
		c.ffr = relation.New(c.n)
		c.cl = relation.New(c.n)
		c.unionCo = relation.New(c.n)
	}
}

// appCtxFor builds application i's static context on first use.
// Construction is lazy because the fail-fast order usually refutes with
// the front application alone.
func (c *Checker) appCtxFor(i int) *appCtx {
	if c.perApp[i] == nil {
		v := exec.NewStaticCtx(c.t, c.apps[i]).NewView()
		a := &appCtx{
			view:       v,
			live:       v.Live(),
			reads:      v.Reads(),
			graphs:     c.build(v),
			liveWrites: make([]relation.Set, c.nAddrs),
		}
		for _, e := range c.t.Events {
			if e.Kind == litmus.KWrite && a.live.Has(e.ID) {
				a.liveWrites[e.Addr] = a.liveWrites[e.Addr].Add(e.ID)
			}
		}
		c.perApp[i] = a
	}
	return c.perApp[i]
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

	// An initial (non-orphaned) read is from-reads-before every live write
	// to its address, for every coherence order.
	for m := a.reads; m != 0; m &= m - 1 {
		r := bits.TrailingZeros64(uint64(m))
		if rf[r] < 0 {
			c.ffr.UnionRow(r, a.liveWrites[c.t.Events[r].Addr])
		}
	}

	for {
		progress := false
		for _, g := range a.graphs {
			// Lower bound on the graph of any satisfying execution: static
			// base, the rf edges the graph includes, and everything forced
			// so far.
			c.cl.CopyFrom(g.base)
			for m := a.reads; m != 0; m &= m - 1 {
				r := bits.TrailingZeros64(uint64(m))
				src := rf[r]
				if src < 0 || !a.live.Has(src) {
					continue // initial or orphaned (source removed by RI)
				}
				if g.rfExternal && !a.view.Ext().Has(src, r) {
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
				ws := a.liveWrites[addr]
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

			for m := a.reads; m != 0; m &= m - 1 {
				r := bits.TrailingZeros64(uint64(m))
				src := rf[r]
				if src < 0 || !a.live.Has(src) {
					continue
				}
				rfInGraph := !g.rfExternal || a.view.Ext().Has(src, r)
				for mw := a.liveWrites[c.t.Events[r].Addr].Remove(src); mw != 0; mw &= mw - 1 {
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
	for m := a.reads; m != 0; m &= m - 1 {
		r := bits.TrailingZeros64(uint64(m))
		if rf[r] == w1 {
			c.ffr.Add(r, w2)
		}
	}
	return true, true
}
