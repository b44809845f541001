package memmodel

import (
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/relation"
)

// c11Derived bundles the shared derived relations of the C/C++ model.
type c11Derived struct {
	hb  relation.Rel
	eco relation.Rel
}

// deriveC11 computes happens-before and extended coherence order for the
// RC11-flavored C/C++ model. Following the paper (§6.4) we use no
// initialization events; our fr definition already treats initial reads as
// coherence-first. Release sequences, synchronizes-with (including fence
// synchronization), and hb follow RC11 (Lahav et al.), which repairs the
// Batty et al. formulation the paper builds on while keeping the same
// axiom structure.
func deriveC11(v *exec.View) *c11Derived {
	return v.Memo("c11", func() any {
		n := v.N()

		relW := v.Where(func(id int) bool {
			return v.Writes().Has(id) && orderAtLeastRelease(v.OrderOf(id))
		})
		acqR := v.Where(func(id int) bool {
			return v.Reads().Has(id) && orderAtLeastAcquire(v.OrderOf(id))
		})
		relF := v.FencesOfKind(litmus.FRel, litmus.FAcqRel, litmus.FSC)
		acqF := v.FencesOfKind(litmus.FAcq, litmus.FAcqRel, litmus.FSC)

		// rs = [W]; po|loc?; [W]; (rf;rmw)*
		wsIden := relation.IdentityOn(n, v.Writes())
		poLocWW := v.POLoc().Restrict(v.Writes(), v.Writes())
		rs := wsIden.Union(poLocWW).Join(v.RF().Join(v.RMW()).ReflexiveClosure())

		// sw = [relW ∪ relF]; ([F];po)?; rs; rf; [R]; (po;[F_acq])?; [acqR ∪ acqF]
		pre := relation.IdentityOn(n, relW).
			Union(v.PO().RestrictDomain(relF).RestrictRange(v.Writes()))
		post := relation.IdentityOn(n, acqR).
			Union(v.PO().RestrictDomain(v.Reads()).RestrictRange(acqF))
		sw := pre.Join(rs).Join(v.RF()).Join(post)

		hb := v.PO().Union(sw).Closure()
		eco := v.Com().Closure()
		return &c11Derived{hb: hb, eco: eco}
	}).(*c11Derived)
}

func orderAtLeastRelease(o litmus.Order) bool {
	return o == litmus.ORelease || o == litmus.OAcqRel || o == litmus.OSC
}

func orderAtLeastAcquire(o litmus.Order) bool {
	return o == litmus.OAcquire || o == litmus.OAcqRel || o == litmus.OSC
}

// C11 returns the C/C++ memory model in an RC11-flavored axiomatisation:
// coherence (irreflexive hb;eco?), RMW atomicity, a partial-SC condition
// over seq_cst accesses and fences, and a no-thin-air axiom phrased as
// acyclic(po ∪ rf). Out-of-thin-air behavior is not fully axiomatisable
// (paper §3.3); like the paper we use the dependency-free conservative
// phrasing, so Remove Dependency does not apply (paper Table 2 footnote).
func C11() Model {
	return &model{
		name: "c11",
		axioms: []Axiom{
			{
				Name: "coherence",
				Holds: func(v *exec.View) bool {
					d := deriveC11(v)
					return d.hb.Join(d.eco.OptStep()).Irreflexive()
				},
			},
			rmwAtomicity(false),
			{
				Name: "sc",
				Holds: func(v *exec.View) bool {
					return c11PSC(v).Acyclic()
				},
			},
			{
				Name: "no_thin_air",
				Holds: func(v *exec.View) bool {
					return v.PO().Union(v.RF()).Acyclic()
				},
			},
		},
		vocab: Vocab{
			Ops: []litmus.Op{
				litmus.R(0), litmus.Racq(0), litmus.Rsc(0),
				litmus.W(0), litmus.Wrel(0), litmus.Wsc(0),
				litmus.F(litmus.FAcq), litmus.F(litmus.FRel),
				litmus.F(litmus.FAcqRel), litmus.F(litmus.FSC),
			},
			RMWOps: [][2]litmus.Op{
				{litmus.R(0), litmus.W(0)},
				{litmus.Racq(0), litmus.Wrel(0)},
			},
		},
		relax: RelaxSpec{
			DemoteOrder: c11DemoteOrder,
			DemoteFence: c11DemoteFence,
			DRMW:        true,
		},
	}
}

// c11PSC computes the RC11 partial-SC relation:
//
//	scb      = po ∪ po;hb;po ∪ hb|loc ∪ co ∪ fr
//	psc_base = ([E_sc] ∪ [F_sc];hb?) ; scb ; ([E_sc] ∪ hb?;[F_sc])
//	psc_f    = [F_sc] ; (hb ∪ hb;eco;hb) ; [F_sc]
//	psc      = psc_base ∪ psc_f
func c11PSC(v *exec.View) relation.Rel {
	d := deriveC11(v)
	n := v.N()
	esc := v.Where(func(id int) bool {
		return (v.Reads().Has(id) || v.Writes().Has(id)) && v.OrderOf(id) == litmus.OSC
	})
	fsc := v.FencesOfKind(litmus.FSC)

	hbOpt := d.hb.OptStep()
	scb := v.PO().
		Union(v.PO().Join(d.hb).Join(v.PO())).
		Union(d.hb.Intersect(v.SameAddr())).
		Union(v.CO()).
		Union(v.FR())
	pre := relation.IdentityOn(n, esc).Union(hbOpt.RestrictDomain(fsc))
	post := relation.IdentityOn(n, esc).Union(hbOpt.RestrictRange(fsc))
	pscBase := pre.Join(scb).Join(post)
	pscF := d.hb.Union(d.hb.Join(d.eco).Join(d.hb)).Restrict(fsc, fsc)
	return pscBase.Union(pscF)
}

func c11DemoteOrder(e litmus.Event) []litmus.Order {
	switch e.Kind {
	case litmus.KRead:
		switch e.Order {
		case litmus.OSC:
			return toAcquire
		case litmus.OAcquire:
			return toPlain
		}
	case litmus.KWrite:
		switch e.Order {
		case litmus.OSC:
			return toRelease
		case litmus.ORelease:
			return toPlain
		}
	}
	return nil
}

func c11DemoteFence(e litmus.Event) []litmus.FenceKind {
	switch e.Fence {
	case litmus.FSC:
		return toAcqRelFence
	case litmus.FAcqRel:
		return toAcqOrRelFence
	}
	return nil
}
