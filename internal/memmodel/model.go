// Package memmodel defines axiomatic memory consistency models as sets of
// named axioms over the relational views of package exec, together with the
// per-model metadata the synthesizer needs: the instruction vocabulary and
// the applicable instruction relaxations (paper Table 2).
//
// Implemented models: SC, TSO (paper Fig. 4), Power and ARMv7 (the
// herding-cats formulation the paper uses, Fig. 15), a proposed
// ARMv8-flavored model with LDAR/STLR opcodes (the paper's DMO example,
// §3.2), SCC (paper Fig. 17, with the sc-order treatment generalizing
// Fig. 19), an RC11-flavored C/C++ model, and an HSA-like scoped variant
// of SCC exercising scope demotion.
package memmodel

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"sync/atomic"

	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/relation"
)

// Axiom is one named constraint of a memory model. Holds reports whether
// the axiom is satisfied by the view. Views carry any perturbation
// themselves, so the same predicate serves both the forbidden-outcome check
// and the perturbed-model validity check of the minimality criterion.
type Axiom struct {
	Name  string
	Holds func(v *exec.View) bool
	// Graph declares the axiom's acyclicity graph when the axiom was
	// built by Acyclic, and is nil for every other axiom shape.
	Graph *Graph
}

// Graph declares an axiom of the shape acyclic(static ∪ rf ∪ co ∪ fr),
// with rfe in place of rf when RFExternal: a static part determined by
// the (test, perturbation) pair alone, plus the execution's communication
// edges. The minimality check evaluates it through the axiom's Holds, and
// fast admissibility (internal/admit) saturates it, so each such axiom is
// written once.
type Graph struct {
	key        string // StaticMemo key of the per-context state
	static     func(c *exec.StaticCtx, dst relation.Rel)
	rfExternal bool
}

// graphIDs numbers graphs for their StaticMemo keys. Axiom names would
// not do: one static context may serve several models (catlint's
// DiffModels evaluates two through one view), whose same-named axioms can
// differ.
var graphIDs atomic.Uint64

// Acyclic returns the axiom acyclic(static ∪ rf ∪ co ∪ fr), or with rfe
// in place of rf when rfExternal, declaring its Graph and deriving Holds
// from it. static adds the static part's edges to dst, which is empty
// over c's universe; it runs once per binding of a static context.
func Acyclic(name string, rfExternal bool, static func(c *exec.StaticCtx, dst relation.Rel)) Axiom {
	g := &Graph{
		key:        "acyclic#" + strconv.FormatUint(graphIDs.Add(1), 10),
		static:     static,
		rfExternal: rfExternal,
	}
	return Axiom{Name: name, Holds: g.holds, Graph: g}
}

// copyOf is the static part of a graph whose static edges are one of the
// context's relations.
func copyOf(rel func(c *exec.StaticCtx) relation.Rel) func(c *exec.StaticCtx, dst relation.Rel) {
	return func(c *exec.StaticCtx, dst relation.Rel) { dst.CopyFrom(rel(c)) }
}

// graphCtx is a graph's state in one static context, cached there: the
// static part and the scratch relation Holds assembles the whole graph in.
type graphCtx struct {
	base, scratch relation.Rel
}

// state returns the graph's state in context c, refilling the slot's
// buffers once per binding of c.
func (g *Graph) state(c *exec.StaticCtx) *graphCtx {
	return c.StaticMemo(g.key, func(prev any) any {
		s, _ := prev.(*graphCtx)
		if s == nil {
			s = new(graphCtx)
		}
		s.base.Resize(c.N())
		s.scratch.Resize(c.N())
		g.static(c, s.base)
		return s
	}).(*graphCtx)
}

// Static returns the graph's static part in context c, from the same
// StaticMemo slot Holds reads. It is valid until c's next Rebind; the
// caller must not mutate it.
func (g *Graph) Static(c *exec.StaticCtx) relation.Rel { return g.state(c).base }

// RFExternal reports whether the graph includes only the cross-thread rf
// edges (rfe) rather than all of rf.
func (g *Graph) RFExternal() bool { return g.rfExternal }

func (g *Graph) holds(v *exec.View) bool {
	s := g.state(v.StaticCtx)
	if g.rfExternal {
		s.scratch.CopyFrom(v.RFE())
		s.scratch.UnionWith(v.CO())
		s.scratch.UnionWith(v.FR())
	} else {
		s.scratch.CopyFrom(v.Com())
	}
	s.scratch.UnionWith(s.base)
	return s.scratch.Acyclic()
}

// scPerLoc is sc_per_loc = acyclic(po_loc ∪ com): per-location sequential
// consistency, stated alike by tso (paper Fig. 4), power/armv7 (Fig. 15),
// armv8, and scc/hsa (Fig. 17).
func scPerLoc() Axiom {
	return Acyclic("sc_per_loc", false, copyOf((*exec.StaticCtx).POLoc))
}

// rmwAtomicity is the atomicity of read-modify-write pairs: no write
// intervenes in coherence between a pair's read and its write, i.e.
// empty(fr;co ∩ rmw). With external set only cross-thread writes count,
// empty(fre;coe ∩ rmw) — herding-cats "atomic", where a larx/stcx pair
// fails only if another thread's write intervenes.
func rmwAtomicity(external bool) Axiom {
	return Axiom{
		Name: "rmw_atomicity",
		Holds: func(v *exec.View) bool {
			rmw := v.RMW()
			if rmw.IsEmpty() {
				return true
			}
			fr, co := v.FR(), v.CO()
			if external {
				fr, co = v.FRE(), v.COE()
			}
			// fr;co ∩ rmw is empty iff no pair (r, w) of rmw has a write
			// co-before w that r is fr-before.
			for m := rmw.Domain(); m != 0; m &= m - 1 {
				r := bits.TrailingZeros64(uint64(m))
				if !co.Image(fr.Successors(r)).Intersect(rmw.Successors(r)).IsEmpty() {
					return false
				}
			}
			return true
		},
	}
}

// Vocab describes the instruction alphabet available to the synthesizer for
// a model.
type Vocab struct {
	// Ops are the single-instruction templates (address to be filled in
	// by the synthesizer; fences ignore it).
	Ops []litmus.Op
	// RMWOps are atomic read-modify-write pair templates.
	RMWOps [][2]litmus.Op
	// DepTypes are the dependency flavors the model distinguishes; empty
	// for models without syntactic dependencies.
	DepTypes []litmus.DepType
	// Scopes are the synchronization scopes; empty for non-scoped models.
	Scopes []litmus.Scope
	// UsesSC requests enumeration of total orders over FSC fences.
	UsesSC bool
}

// RelaxSpec describes which instruction relaxations a model admits
// (paper §3.2–3.3, Table 2). RI applies to every model unconditionally.
type RelaxSpec struct {
	// DemoteOrder returns the one-step weaker memory orders of a read or
	// write event (DMO); nil/empty when not demotable.
	DemoteOrder func(e litmus.Event) []litmus.Order
	// DemoteFence returns the one-step weaker fence kinds of a fence
	// event (DF).
	DemoteFence func(e litmus.Event) []litmus.FenceKind
	// DemoteScope returns the one-step narrower scopes of an event (DS).
	DemoteScope func(e litmus.Event) []litmus.Scope
	// RD enables Remove Dependency.
	RD bool
	// DRMW enables Decompose RMW.
	DRMW bool
}

// Model is an axiomatic memory consistency model.
type Model interface {
	// Name returns the model's short name ("tso", "power", ...).
	Name() string
	// Axioms returns the model's axioms in a stable order.
	Axioms() []Axiom
	// Vocab returns the synthesis vocabulary.
	Vocab() Vocab
	// Relax returns the relaxation applicability spec.
	Relax() RelaxSpec
}

// Valid reports whether the execution behind v satisfies every axiom of m.
func Valid(m Model, v *exec.View) bool {
	for _, a := range m.Axioms() {
		if !a.Holds(v) {
			return false
		}
	}
	return true
}

// ValidUnderSomeSC returns the validity check of t's executions under m,
// with the sc order auxiliary (paper §6.3): it binds one unperturbed view
// to t, and the check sets x.SC to each order of exec.SCOrders in turn
// (when m consults one) and reports whether m holds under some order,
// leaving x.SC at that order, or at the first order when none admits x.
// Callers enumerate without UseSC, since the check supplies the orders.
// The check is not safe for concurrent use.
func ValidUnderSomeSC(m Model, t *litmus.Test) func(x *exec.Execution) bool {
	orders := [][]int{nil}
	if all := exec.SCOrders(t); all != nil && m.Vocab().UsesSC {
		orders = all
	}
	v := exec.NewStaticCtx(t, exec.NoPerturb).NewView()
	return func(x *exec.Execution) bool {
		for _, sc := range orders {
			x.SC = sc
			v.Reset(x)
			if Valid(m, v) {
				return true
			}
		}
		x.SC = orders[0]
		return false
	}
}

// AxiomByName returns the named axiom of m.
func AxiomByName(m Model, name string) (Axiom, error) {
	for _, a := range m.Axioms() {
		if a.Name == name {
			return a, nil
		}
	}
	return Axiom{}, fmt.Errorf("memmodel: model %s has no axiom %q", m.Name(), name)
}

// The one-step demotion targets the builtin RelaxSpecs return. They are
// shared, not rebuilt per event, because AppendApplications only reads
// them.
var (
	toPlain         = []litmus.Order{litmus.OPlain}
	toAcquire       = []litmus.Order{litmus.OAcquire}
	toRelease       = []litmus.Order{litmus.ORelease}
	toLwSync        = []litmus.FenceKind{litmus.FLwSync}
	toAcqRelFence   = []litmus.FenceKind{litmus.FAcqRel}
	toAcqOrRelFence = []litmus.FenceKind{litmus.FAcq, litmus.FRel}
	toWG            = []litmus.Scope{litmus.ScopeWG}
)

// Applications enumerates every instruction-relaxation application to t
// that m admits: the domain the minimality criterion quantifies over. It
// returns a fresh slice; AppendApplications fills a caller's.
func Applications(m Model, t *litmus.Test) []exec.Perturb {
	return AppendApplications(nil, m, t)
}

// AppendApplications appends the relaxation applications of m to t to dst,
// in Applications' order, and returns the extended slice. It allocates
// only when dst lacks the capacity.
func AppendApplications(dst []exec.Perturb, m Model, t *litmus.Test) []exec.Perturb {
	spec := m.Relax()
	for _, e := range t.Events {
		dst = append(dst, exec.Perturb{Kind: exec.PRI, Event: e.ID})
		switch e.Kind {
		case litmus.KRead, litmus.KWrite:
			if spec.DemoteOrder != nil {
				for _, o := range spec.DemoteOrder(e) {
					dst = append(dst, exec.Perturb{Kind: exec.PDMO, Event: e.ID, NewOrder: o})
				}
			}
		case litmus.KFence:
			if spec.DemoteFence != nil {
				for _, f := range spec.DemoteFence(e) {
					dst = append(dst, exec.Perturb{Kind: exec.PDF, Event: e.ID, NewFence: f})
				}
			}
		}
		if spec.DemoteScope != nil {
			for _, s := range spec.DemoteScope(e) {
				dst = append(dst, exec.Perturb{Kind: exec.PDS, Event: e.ID, NewScope: s})
			}
		}
		if spec.RD && hasOutgoingDep(t, e.ID) {
			dst = append(dst, exec.Perturb{Kind: exec.PRD, Event: e.ID})
		}
	}
	if spec.DRMW {
		for _, p := range t.RMW {
			dst = append(dst, exec.Perturb{Kind: exec.PDRMW, Event: p[0]})
		}
	}
	return dst
}

// hasOutgoingDep reports whether event id of t is the source of a
// dependency, explicit or the implicit data dependency of an RMW pair.
func hasOutgoingDep(t *litmus.Test, id int) bool {
	for _, d := range t.Deps {
		if d.From == id {
			return true
		}
	}
	for _, p := range t.RMW {
		if p[0] == id {
			return true
		}
	}
	return false
}

// RelaxationTags returns the names of the relaxations applicable to model m
// in principle (paper Table 2 row), in a stable order.
func RelaxationTags(m Model) []string {
	spec := m.Relax()
	tags := map[string]bool{"RI": true}
	// Probe the spec functions over the model's own vocabulary.
	for _, op := range m.Vocab().Ops {
		e := eventFromOp(op, 0)
		if spec.DemoteOrder != nil && e.Kind != litmus.KFence && len(spec.DemoteOrder(e)) > 0 {
			tags["DMO"] = true
		}
		if spec.DemoteFence != nil && e.Kind == litmus.KFence && len(spec.DemoteFence(e)) > 0 {
			tags["DF"] = true
		}
		if spec.DemoteScope != nil && len(spec.DemoteScope(e)) > 0 {
			tags["DS"] = true
		}
	}
	if spec.RD && len(m.Vocab().DepTypes) > 0 {
		tags["RD"] = true
	}
	if spec.DRMW && len(m.Vocab().RMWOps) > 0 {
		tags["DRMW"] = true
	}
	order := []string{"RI", "DRMW", "DF", "DMO", "RD", "DS"}
	var out []string
	for _, tag := range order {
		if tags[tag] {
			out = append(out, tag)
		}
	}
	return out
}

func eventFromOp(op litmus.Op, id int) litmus.Event {
	// The builder is the only constructor of events from ops; replicate
	// the mapping for metadata probing by building a one-op test.
	t := litmus.New("probe", [][]litmus.Op{{op}})
	e := t.Events[0]
	e.ID = id
	return e
}

// All returns every built-in model, sorted by name.
func All() []Model {
	ms := []Model{SC(), TSO(), Power(), ARMv7(), ARMv8(), SCC(), C11(), HSA()}
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name() < ms[j].Name() })
	return ms
}

// ByName returns the model with the given name: models registered in the
// Default registry first, then built-ins. An unknown name's error lists
// every available model.
func ByName(name string) (Model, error) {
	return Default.ByName(name)
}

// Define constructs a custom memory model from its axioms, vocabulary, and
// relaxation spec — the paper's promise that the methodology applies to
// "any axiomatically-specified memory model".
func Define(name string, axioms []Axiom, vocab Vocab, relax RelaxSpec) Model {
	return &model{name: name, axioms: axioms, vocab: vocab, relax: relax}
}

// model is the shared trivial implementation of Model.
type model struct {
	name   string
	axioms []Axiom
	vocab  Vocab
	relax  RelaxSpec
}

func (m *model) Name() string     { return m.name }
func (m *model) Axioms() []Axiom  { return m.axioms }
func (m *model) Vocab() Vocab     { return m.vocab }
func (m *model) Relax() RelaxSpec { return m.relax }
