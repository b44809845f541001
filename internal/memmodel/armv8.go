package memmodel

import (
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/relation"
)

// ARMv8 returns an ARMv8-flavored memory model. The paper notes (§6.2)
// that ARMv8 — which adds explicit load-acquire (LDAR) and store-release
// (STLR) opcodes — had no axiomatic formalization at the time; its Table 2
// row nevertheless lists RI, DRMW, DMO, and RD as the applicable
// relaxations. To exercise exactly that row we formalize a *proposed*
// ARMv8-like model, in the same spirit as the paper's own SCC proposal:
//
//   - the ARMv7/Power skeleton (sc_per_loc, atomicity, no_thin_air,
//     observation, propagation with dmb as the full fence), plus
//   - acquire loads ordered before all po-later accesses and release
//     stores ordered after all po-earlier accesses (RCpc flavor: a
//     release followed by an acquire of a different location is NOT
//     ordered, so SB-style patterns still need dmb).
//
// Demote Memory Order maps LDAR->LDR and STLR->STR, which is the paper's
// example for DMO ("also for demoting ARMv8 LDAR load-acquire opcodes into
// LDR load-relaxed opcodes", §3.2).
func ARMv8() Model {
	return &model{
		name:   "armv8",
		axioms: armv8Axioms(),
		vocab: Vocab{
			Ops: []litmus.Op{
				litmus.R(0), litmus.Racq(0),
				litmus.W(0), litmus.Wrel(0),
				litmus.F(litmus.FSync), litmus.F(litmus.FISync),
			},
			RMWOps: [][2]litmus.Op{
				{litmus.R(0), litmus.W(0)}, // ldxr/stxr pair
			},
			DepTypes: []litmus.DepType{litmus.DepAddr, litmus.DepData, litmus.DepCtrl},
		},
		relax: RelaxSpec{
			DemoteOrder: func(e litmus.Event) []litmus.Order {
				switch e.Order {
				case litmus.OAcquire, litmus.ORelease:
					return []litmus.Order{litmus.OPlain}
				}
				return nil
			},
			// dmb.st / dmb.ld are not axiomatized (paper Table 2
			// footnote), so DF does not apply.
			RD:   true,
			DRMW: true,
		},
	}
}

// armv8Order computes the acquire/release ordering edges: an acquire load
// is ordered before every po-later access; every po-earlier access is
// ordered before a release store.
func armv8Order(c *exec.StaticCtx) relation.Rel {
	acq := c.Where(func(id int) bool {
		return c.Reads().Has(id) && c.OrderOf(id) == litmus.OAcquire
	})
	rel := c.Where(func(id int) bool {
		return c.Writes().Has(id) && c.OrderOf(id) == litmus.ORelease
	})
	return c.PO().RestrictDomain(acq).Union(c.PO().RestrictRange(rel))
}

// deriveARMv8 augments the ARMv7 (Power-skeleton) derivation with the
// acquire/release edges folded into the fence relation, so they
// participate in hb and propagation.
func deriveARMv8(v *exec.View) *powerDerived {
	return v.Memo("armv8", func() any {
		base := &derivePower(v, true).d
		ar := armv8Order(v.StaticCtx)
		fences := base.fences.Union(ar)
		hb := base.ppo.Union(fences).Union(v.RFE())
		hbRT := hb.ReflexiveClosure()
		n := v.N()
		ww := relation.Cross(n, v.Writes(), v.Writes())
		propBase := fences.Union(v.RFE().Join(fences)).Join(hbRT)
		comRT := v.Com().ReflexiveClosure()
		prop := ww.Intersect(propBase).
			Union(comRT.Join(propBase.ReflexiveClosure()).Join(base.ffence).Join(hbRT))
		return &powerDerived{ppo: base.ppo, fences: fences, ffence: base.ffence, hb: hb, prop: prop}
	}).(*powerDerived)
}

func armv8Axioms() []Axiom {
	return []Axiom{
		scPerLoc(),
		rmwAtomicity(true),
		{
			Name: "no_thin_air",
			Holds: func(v *exec.View) bool {
				return deriveARMv8(v).hb.Acyclic()
			},
		},
		{
			Name: "observation",
			Holds: func(v *exec.View) bool {
				d := deriveARMv8(v)
				return v.FRE().Join(d.prop).Join(d.hb.ReflexiveClosure()).Irreflexive()
			},
		},
		{
			Name: "propagation",
			Holds: func(v *exec.View) bool {
				d := deriveARMv8(v)
				return v.CO().Union(d.prop).Acyclic()
			},
		},
	}
}
