package memmodel

import (
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/relation"
)

// SC returns Lamport sequential consistency: a single total order
// constraint over po and communication, plus RMW atomicity.
func SC() Model {
	return &model{
		name: "sc",
		axioms: []Axiom{
			rmwAtomicity(true),
			Acyclic("sc_order", false, (*exec.StaticCtx).PO),
		},
		vocab: Vocab{
			Ops: []litmus.Op{litmus.R(0), litmus.W(0)},
			RMWOps: [][2]litmus.Op{
				{litmus.R(0), litmus.W(0)},
			},
		},
		relax: RelaxSpec{DRMW: true},
	}
}

// TSO returns the total store ordering model of paper Fig. 4 (the x86/SPARC
// model), with axioms sc_per_loc, rmw_atomicity, and causality.
func TSO() Model {
	return &model{
		name: "tso",
		axioms: []Axiom{
			scPerLoc(),
			rmwAtomicity(true),
			Acyclic("causality", true, tsoPPO),
		},
		vocab: Vocab{
			Ops: []litmus.Op{
				litmus.R(0), litmus.W(0), litmus.F(litmus.FMFence),
			},
			RMWOps: [][2]litmus.Op{
				{litmus.R(0), litmus.W(0)},
			},
		},
		relax: RelaxSpec{DRMW: true},
	}
}

// tsoPPO is the static part of tso's causality axiom,
// acyclic(rfe ∪ co ∪ fr ∪ ppo ∪ fence): ppo = po minus write→read pairs,
// plus the mfence ordering.
func tsoPPO(c *exec.StaticCtx) relation.Rel {
	ppo := c.PO().Minus(relation.Cross(c.N(), c.Writes(), c.Reads()))
	ppo.UnionWith(c.FenceRel(litmus.FMFence))
	return ppo
}
