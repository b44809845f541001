package memmodel

import (
	"math/bits"

	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/relation"
)

// sccStatic holds the execution-independent half of the SCC/HSA derivation
// (cached per static context via StaticCtx.StaticMemo, and refilled in
// place when the context is rebound) together with pooled scratch for the
// per-execution sync and causality computations.
type sccStatic struct {
	releasers, acquirers relation.Set
	prefix, suffix       relation.Rel
	poRT                 relation.Rel

	// scratch (per-execution values, pooled across executions)
	chain, sync, cause, tmp relation.Rel
	scopedSC                relation.Rel // sc ∩ scope-compat (scoped only)
}

func sccStaticOf(c *exec.StaticCtx, scoped bool) *sccStatic {
	key := "scc.static"
	if scoped {
		key = "scc.scoped.static"
	}
	return c.StaticMemo(key, func(prev any) any {
		s, _ := prev.(*sccStatic)
		if s == nil {
			s = new(sccStatic)
		}
		s.refill(c)
		return s
	}).(*sccStatic)
}

// refill recomputes the static half for context c into s's buffers:
//
//	prefix = iden + (Fence <: po) + (Release <: po_loc)
//	suffix = iden + (po :> Fence) + (po_loc :> Acquire)
//
// with iden over the live events, and poRT = *po.
func (s *sccStatic) refill(c *exec.StaticCtx) {
	for _, r := range [...]*relation.Rel{
		&s.prefix, &s.suffix, &s.poRT,
		&s.chain, &s.sync, &s.cause, &s.tmp, &s.scopedSC,
	} {
		r.Resize(c.N())
	}
	fences := c.Fences()
	releases := c.Where(func(id int) bool {
		return c.Writes().Has(id) && c.OrderOf(id) == litmus.ORelease
	})
	acquires := c.Where(func(id int) bool {
		return c.Reads().Has(id) && c.OrderOf(id) == litmus.OAcquire
	})
	s.releasers = releases.Union(fences)
	s.acquirers = acquires.Union(fences)

	all := relation.UniverseSet(c.N())
	for m := c.Live(); m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(uint64(m))
		s.prefix.Add(i, i)
	}
	s.suffix.CopyFrom(s.prefix)
	for _, part := range [...]struct {
		dst      relation.Rel
		rel      relation.Rel
		dom, rng relation.Set
	}{
		{s.prefix, c.PO(), fences, all},
		{s.prefix, c.POLoc(), releases, all},
		{s.suffix, c.PO(), all, fences},
		{s.suffix, c.POLoc(), all, acquires},
	} {
		s.tmp.CopyFrom(part.rel)
		s.tmp.RestrictIn(part.dom, part.rng)
		part.dst.UnionWith(s.tmp)
	}
	s.poRT.CopyFrom(c.PO())
	s.poRT.ReflexiveCloseIn()
}

// sccSync computes the SCC synchronization relation of paper Fig. 17:
//
//	prefix = iden + (Fence <: po) + (Release <: po_loc)
//	suffix = iden + (po :> Fence) + (po_loc :> Acquire)
//	sync   = Releasers <: prefix.^(rf+rmw).suffix :> Acquirers
//
// where Releasers are release writes and fences, and Acquirers are acquire
// reads and fences. When scoped is set, sync edges additionally require the
// endpoints' scopes to mutually cover each other (the HSA-like variant).
// The result lives in the static bundle's pooled sync buffer and is
// memoized per execution (sync does not depend on the sc order).
func sccSync(v *exec.View, scoped bool) relation.Rel {
	key := "scc.sync"
	if scoped {
		key = "scc.scoped.sync"
	}
	return *v.Memo(key, func() any {
		s := sccStaticOf(v.StaticCtx, scoped)
		s.chain.CopyFrom(v.RF())
		s.chain.UnionWith(v.RMW())
		s.chain.CloseIn()
		s.prefix.JoinInto(s.chain, s.tmp)
		s.tmp.JoinInto(s.suffix, s.sync)
		s.sync.RestrictIn(s.releasers, s.acquirers)
		if scoped {
			s.sync.IntersectWith(v.ScopeCompatible())
		}
		return &s.sync
	}).(*relation.Rel)
}

// sccCause computes cause = *po.(sc + sync).*po. For the scoped variant the
// sc order is restricted to scope-compatible fence pairs. The
// result lives in the static bundle's pooled cause buffer, valid until the
// next sccCause call on the same context.
func sccCause(v *exec.View, scoped bool) relation.Rel {
	s := sccStaticOf(v.StaticCtx, scoped)
	sc := v.SCRel()
	if scoped {
		s.scopedSC.CopyFrom(sc)
		s.scopedSC.IntersectWith(v.ScopeCompatible())
		sc = s.scopedSC
	}
	sync := sccSync(v, scoped)
	s.tmp.CopyFrom(sc)
	s.tmp.UnionWith(sync)
	s.poRT.JoinInto(s.tmp, s.cause)
	s.cause.JoinInto(s.poRT, s.tmp)
	s.cause.CopyFrom(s.tmp)
	return s.cause
}

func sccCausalityHolds(v *exec.View, scoped bool) bool {
	s := sccStaticOf(v.StaticCtx, scoped)
	cause := sccCause(v, scoped)
	s.tmp.CopyFrom(cause)
	s.tmp.CloseIn()
	comRT := v.Com()
	// com* ; ^cause irreflexive ⟺ ∀i: i ∉ (com*;^cause)(i). Fold the
	// reflexive closure of com in by also checking ^cause's own diagonal.
	if !s.tmp.Irreflexive() {
		return false
	}
	s.chain.CopyFrom(comRT)
	s.chain.ReflexiveCloseIn()
	s.chain.JoinInto(s.tmp, s.cause)
	return s.cause.Irreflexive()
}

func sccAxioms(scoped bool) []Axiom {
	return []Axiom{
		scPerLoc(),
		{
			Name: "no_thin_air",
			Holds: func(v *exec.View) bool {
				s := sccStaticOf(v.StaticCtx, scoped)
				s.tmp.CopyFrom(v.RF())
				s.tmp.UnionWith(v.DepAll())
				return s.tmp.Acyclic()
			},
		},
		rmwAtomicity(false), // no fr.co & rmw (Fig. 17)
		{
			// The sc order this axiom consults is auxiliary; callers
			// quantify over Vocab.SCOrders (the general form of the
			// paper's Fig. 19 lone-edge workaround).
			Name: "causality",
			Holds: func(v *exec.View) bool {
				return sccCausalityHolds(v, scoped)
			},
		},
	}
}

// SCC returns the Streamlined Causal Consistency model the paper introduces
// (§6.3, Fig. 17): acquire/release instructions, acquire-release and
// sequentially-consistent fences (the latter totally ordered by sc), one
// generic dependency flavor, and no preserved-program-order machinery.
func SCC() Model {
	return &model{
		name:   "scc",
		axioms: sccAxioms(false),
		vocab: Vocab{
			Ops: []litmus.Op{
				litmus.R(0), litmus.Racq(0),
				litmus.W(0), litmus.Wrel(0),
				litmus.F(litmus.FAcqRel), litmus.F(litmus.FSC),
			},
			RMWOps: [][2]litmus.Op{
				{litmus.R(0), litmus.W(0)},
				{litmus.Racq(0), litmus.Wrel(0)},
			},
			DepTypes: []litmus.DepType{litmus.DepData},
			UsesSC:   true,
		},
		relax: RelaxSpec{
			DemoteOrder: sccDemoteOrder,
			DemoteFence: sccDemoteFence,
			RD:          true, // dependencies feed the no-thin-air axiom only
			DRMW:        true,
		},
	}
}

func sccDemoteOrder(e litmus.Event) []litmus.Order {
	switch e.Order {
	case litmus.OAcquire, litmus.ORelease:
		return toPlain
	}
	return nil
}

func sccDemoteFence(e litmus.Event) []litmus.FenceKind {
	if e.Fence == litmus.FSC {
		return toAcqRelFence
	}
	return nil
}

// HSA returns the scoped variant of SCC standing in for the HSA/OpenCL
// scoped models of paper Table 2: synchronizing instructions carry a scope
// (workgroup or system), synchronization requires mutually inclusive
// scopes, and the Demote Scope relaxation applies. Plain loads and stores
// are unscoped, as in HSA.
func HSA() Model {
	wg, sys := litmus.ScopeWG, litmus.ScopeSys
	return &model{
		name:   "hsa",
		axioms: sccAxioms(true),
		vocab: Vocab{
			Ops: []litmus.Op{
				litmus.R(0), litmus.W(0),
				litmus.Racq(0).WithScope(wg), litmus.Racq(0).WithScope(sys),
				litmus.Wrel(0).WithScope(wg), litmus.Wrel(0).WithScope(sys),
				litmus.F(litmus.FAcqRel).WithScope(wg), litmus.F(litmus.FAcqRel).WithScope(sys),
				litmus.F(litmus.FSC).WithScope(wg), litmus.F(litmus.FSC).WithScope(sys),
			},
			RMWOps: [][2]litmus.Op{
				{litmus.R(0), litmus.W(0)},
			},
			DepTypes: []litmus.DepType{litmus.DepData},
			Scopes:   []litmus.Scope{wg, sys},
			UsesSC:   true,
		},
		relax: RelaxSpec{
			DemoteOrder: sccDemoteOrder,
			DemoteFence: sccDemoteFence,
			DemoteScope: func(e litmus.Event) []litmus.Scope {
				if e.Scope == sys {
					return toWG
				}
				return nil
			},
			RD:   true,
			DRMW: true,
		},
	}
}
