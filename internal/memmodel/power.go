package memmodel

import (
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/relation"
)

// powerVariant selects one of the three models that share the Power
// derivation (Alglave et al. 2014, as used by the paper's Fig. 15).
type powerVariant uint8

const (
	variantPower powerVariant = iota
	// variantARMv7 has dmb as its only fence and leaves po_loc out of cc0.
	variantARMv7
	// variantARMv8 is ARMv7 plus the acquire/release edges, which join
	// the fence relation.
	variantARMv8
)

// powerKeys names each variant's bundle, under one key in both the
// StaticMemo of a context and the Memo of a view.
var powerKeys = [...]string{"power", "armv7", "armv8"}

// powerDerived bundles the expensive intermediate relations of the Power
// formulation.
type powerDerived struct {
	ppo    relation.Rel
	fences relation.Rel
	ffence relation.Rel
	hb     relation.Rel
	hbRT   relation.Rel
	prop   relation.Rel
}

// powerStatic holds the execution-independent half of the Power derivation
// (cached per static context via StaticCtx.StaticMemo, and refilled in
// place when the context is rebound) together with the pooled scratch
// buffers the per-execution derivation writes into. One derivation runs at
// a time per context (views are single-threaded), so sharing the scratch
// across executions is safe and keeps the hot fixpoint allocation-free.
type powerStatic struct {
	rr, rw, ww relation.Rel
	cc0        relation.Rel // dp ∪ ctrl ∪ addrPo [∪ po_loc on Power]
	ii0s       relation.Rel // static part of ii0: dp
	ci0s       relation.Rel // static part of ci0: ctrl+isync
	ffence     relation.Rel
	fences     relation.Rel

	// scratch for derive (per-execution values, pooled across executions)
	ii0, ci0           relation.Rel
	ii, ic, ci, cc     relation.Rel
	nii, nic, nci, ncc relation.Rel
	tmp, chain         relation.Rel
	propBase, comRT    relation.Rel
	d                  powerDerived
}

func powerStaticOf(c *exec.StaticCtx, variant powerVariant) *powerStatic {
	return c.StaticMemo(powerKeys[variant], func(prev any) any {
		s, _ := prev.(*powerStatic)
		if s == nil {
			s = new(powerStatic)
		}
		s.refill(c, variant)
		return s
	}).(*powerStatic)
}

// refill recomputes the static half for context c into s's buffers.
func (s *powerStatic) refill(c *exec.StaticCtx, variant powerVariant) {
	for _, r := range [...]*relation.Rel{
		&s.rr, &s.rw, &s.ww, &s.cc0, &s.ii0s, &s.ci0s, &s.ffence, &s.fences,
		&s.ii0, &s.ci0, &s.ii, &s.ic, &s.ci, &s.cc,
		&s.nii, &s.nic, &s.nci, &s.ncc, &s.tmp, &s.chain,
		&s.propBase, &s.comRT,
		&s.d.ppo, &s.d.hb, &s.d.hbRT, &s.d.prop,
	} {
		r.Resize(c.N())
	}
	s.rr.UnionCross(c.Reads(), c.Reads())
	s.rw.UnionCross(c.Reads(), c.Writes())
	s.ww.UnionCross(c.Writes(), c.Writes())

	// ii0s = dp = addr ∪ data.
	s.ii0s.CopyFrom(c.Dep(litmus.DepAddr))
	s.ii0s.UnionWith(c.Dep(litmus.DepData))
	// ci0s = ctrl+isync: control dependencies refined through an isync
	// fence order the read before everything po-after the fence.
	s.ci0s.CopyFrom(c.Dep(litmus.DepCtrl))
	s.ci0s.RestrictIn(c.Live(), c.FencesOfKind(litmus.FISync))
	s.ci0s.JoinInto(c.PO(), s.ci0s)
	// cc0 = dp ∪ ctrl ∪ addr;po, plus po_loc on Power.
	s.cc0.CopyFrom(s.ii0s)
	s.cc0.UnionWith(c.Dep(litmus.DepCtrl))
	c.Dep(litmus.DepAddr).JoinInto(c.PO(), s.tmp)
	s.cc0.UnionWith(s.tmp)
	if variant == variantPower {
		s.cc0.UnionWith(c.POLoc())
	}

	// fences = lwfence ∪ ffence on Power, where lwsync does not order a
	// write before a read; ffence on ARMv7; and on ARMv8 also the
	// acquire/release edges: an acquire load before every po-later
	// access, every po-earlier access before a release store.
	s.ffence.CopyFrom(c.FenceRel(litmus.FSync))
	switch variant {
	case variantPower:
		s.fences.CopyFrom(c.FenceRel(litmus.FLwSync))
		s.fences.MinusCross(c.Writes(), c.Reads())
		s.fences.UnionWith(s.ffence)
	case variantARMv7:
		s.fences.CopyFrom(s.ffence)
	case variantARMv8:
		acq := c.Where(func(id int) bool {
			return c.Reads().Has(id) && c.OrderOf(id) == litmus.OAcquire
		})
		rel := c.Where(func(id int) bool {
			return c.Writes().Has(id) && c.OrderOf(id) == litmus.ORelease
		})
		s.fences.CopyFrom(c.PO())
		s.fences.RestrictIn(acq, c.Live())
		s.tmp.CopyFrom(c.PO())
		s.tmp.RestrictIn(c.Live(), rel)
		s.fences.UnionWith(s.tmp)
		s.fences.UnionWith(s.ffence)
	}
	s.d.fences, s.d.ffence = s.fences, s.ffence
}

// derivePower computes preserved program order (the fixed point of the four
// mutually recursive relations ii/ic/ci/cc), the fence relations, hb, and
// prop of one variant. The ARM variants have no lwsync, and cc0 without
// po_loc (reflecting the ARMv7 subtleties the formalization leaves out);
// the variants differ only in the static half. That half comes from
// powerStaticOf; the dynamic half is recomputed into that bundle's pooled
// scratch, so a steady-state derivation does not allocate. It returns the
// bundle, whose d holds the derived relations and whose tmp and chain are
// free scratch until the next derivation.
func derivePower(v *exec.View, variant powerVariant) *powerStatic {
	return v.Memo(powerKeys[variant], func() any {
		s := powerStaticOf(v.StaticCtx, variant)

		// ii0 = dp ∪ rdw ∪ rfi, with rdw = po_loc ∩ (fre;rfe).
		s.ii0.CopyFrom(s.ii0s)
		v.FRE().JoinInto(v.RFE(), s.tmp)
		s.tmp.IntersectWith(v.POLoc())
		s.ii0.UnionWith(s.tmp)
		s.ii0.UnionWith(v.RFI())

		// ci0 = ctrl+isync ∪ detour, with detour = po_loc ∩ (coe;rfe).
		s.ci0.CopyFrom(s.ci0s)
		v.COE().JoinInto(v.RFE(), s.tmp)
		s.tmp.IntersectWith(v.POLoc())
		s.ci0.UnionWith(s.tmp)

		s.ii.CopyFrom(s.ii0)
		s.ic.Clear() // ic0 = ∅
		s.ci.CopyFrom(s.ci0)
		s.cc.CopyFrom(s.cc0)
		for {
			// nii = ii0 ∪ ci ∪ ic;ci ∪ ii;ii
			s.nii.CopyFrom(s.ii0)
			s.nii.UnionWith(s.ci)
			s.ic.JoinInto(s.ci, s.tmp)
			s.nii.UnionWith(s.tmp)
			s.ii.JoinInto(s.ii, s.tmp)
			s.nii.UnionWith(s.tmp)
			// nic = ic0 ∪ ii ∪ cc ∪ ic;cc ∪ ii;ic
			s.nic.CopyFrom(s.ii)
			s.nic.UnionWith(s.cc)
			s.ic.JoinInto(s.cc, s.tmp)
			s.nic.UnionWith(s.tmp)
			s.ii.JoinInto(s.ic, s.tmp)
			s.nic.UnionWith(s.tmp)
			// nci = ci0 ∪ ci;ii ∪ cc;ci
			s.nci.CopyFrom(s.ci0)
			s.ci.JoinInto(s.ii, s.tmp)
			s.nci.UnionWith(s.tmp)
			s.cc.JoinInto(s.ci, s.tmp)
			s.nci.UnionWith(s.tmp)
			// ncc = cc0 ∪ ci ∪ ci;ic ∪ cc;cc
			s.ncc.CopyFrom(s.cc0)
			s.ncc.UnionWith(s.ci)
			s.ci.JoinInto(s.ic, s.tmp)
			s.ncc.UnionWith(s.tmp)
			s.cc.JoinInto(s.cc, s.tmp)
			s.ncc.UnionWith(s.tmp)
			if s.nii.Equal(s.ii) && s.nic.Equal(s.ic) && s.nci.Equal(s.ci) && s.ncc.Equal(s.cc) {
				break
			}
			s.ii, s.nii = s.nii, s.ii
			s.ic, s.nic = s.nic, s.ic
			s.ci, s.nci = s.nci, s.ci
			s.cc, s.ncc = s.ncc, s.cc
		}

		// ppo = (rr ∩ ii) ∪ (rw ∩ ic)
		d := &s.d
		d.ppo.CopyFrom(s.ii)
		d.ppo.IntersectWith(s.rr)
		s.tmp.CopyFrom(s.ic)
		s.tmp.IntersectWith(s.rw)
		d.ppo.UnionWith(s.tmp)

		// hb = ppo ∪ fences ∪ rfe; hbRT = *hb.
		d.hb.CopyFrom(d.ppo)
		d.hb.UnionWith(s.fences)
		d.hb.UnionWith(v.RFE())
		d.hbRT.CopyFrom(d.hb)
		d.hbRT.ReflexiveCloseIn()

		// propBase = (fences ∪ rfe;fences) ; hbRT
		v.RFE().JoinInto(s.fences, s.tmp)
		s.tmp.UnionWith(s.fences)
		s.tmp.JoinInto(d.hbRT, s.propBase)

		// prop = (ww ∩ propBase) ∪ comRT ; *propBase ; ffence ; hbRT
		s.comRT.CopyFrom(v.Com())
		s.comRT.ReflexiveCloseIn()
		s.chain.CopyFrom(s.propBase)
		s.chain.ReflexiveCloseIn()
		s.comRT.JoinInto(s.chain, s.tmp)
		s.tmp.JoinInto(d.ffence, s.chain)
		s.chain.JoinInto(d.hbRT, s.tmp)
		d.prop.CopyFrom(s.ww)
		d.prop.IntersectWith(s.propBase)
		d.prop.UnionWith(s.tmp)

		return s
	}).(*powerStatic)
}

func powerAxioms(variant powerVariant) []Axiom {
	return []Axiom{
		scPerLoc(),
		// Charted separately from the four axioms of paper Fig. 16, which
		// saturates like TSO's.
		rmwAtomicity(true),
		{
			Name: "no_thin_air",
			Holds: func(v *exec.View) bool {
				return derivePower(v, variant).d.hb.Acyclic()
			},
		},
		{
			Name: "observation",
			Holds: func(v *exec.View) bool {
				s := derivePower(v, variant)
				// irreflexive(fre ; prop ; hb*)
				v.FRE().JoinInto(s.d.prop, s.tmp)
				s.tmp.JoinInto(s.d.hbRT, s.chain)
				return s.chain.Irreflexive()
			},
		},
		{
			Name: "propagation",
			Holds: func(v *exec.View) bool {
				s := derivePower(v, variant)
				// acyclic(co ∪ prop)
				s.tmp.CopyFrom(v.CO())
				s.tmp.UnionWith(s.d.prop)
				return s.tmp.Acyclic()
			},
		},
	}
}

// Power returns the Power memory model in the herding-cats formulation the
// paper uses (Fig. 15): sc_per_loc, no_thin_air, observation, propagation,
// with ppo computed as the fixed point of four mutually recursive relations
// and fences split into lightweight (lwsync) and full (sync).
func Power() Model {
	return &model{
		name:   "power",
		axioms: powerAxioms(variantPower),
		vocab: Vocab{
			Ops: []litmus.Op{
				litmus.R(0), litmus.W(0),
				litmus.F(litmus.FLwSync), litmus.F(litmus.FSync),
				litmus.F(litmus.FISync),
			},
			RMWOps: [][2]litmus.Op{
				{litmus.R(0), litmus.W(0)}, // larx/stcx pair
			},
			DepTypes: []litmus.DepType{litmus.DepAddr, litmus.DepData, litmus.DepCtrl},
		},
		relax: RelaxSpec{
			DemoteFence: func(e litmus.Event) []litmus.FenceKind {
				if e.Fence == litmus.FSync {
					return toLwSync
				}
				// lwsync's weaker sibling (eieio) is not axiomatically
				// formalized (paper §3.3); removal is covered by RI.
				return nil
			},
			RD:   true,
			DRMW: true,
		},
	}
}

// ARMv7 returns the ARMv7 memory model: the Power skeleton with dmb as the
// only fence (mapped onto FSync), isb for control dependencies (FISync),
// and the ARM cc0 variant. dmb.st is not axiomatically formalized (paper
// Table 2 footnote), so DF does not apply.
func ARMv7() Model {
	return &model{
		name:   "armv7",
		axioms: powerAxioms(variantARMv7),
		vocab: Vocab{
			Ops: []litmus.Op{
				litmus.R(0), litmus.W(0),
				litmus.F(litmus.FSync), litmus.F(litmus.FISync),
			},
			RMWOps: [][2]litmus.Op{
				{litmus.R(0), litmus.W(0)}, // ldrex/strex pair
			},
			DepTypes: []litmus.DepType{litmus.DepAddr, litmus.DepData, litmus.DepCtrl},
		},
		relax: RelaxSpec{
			RD:   true,
			DRMW: true,
		},
	}
}
