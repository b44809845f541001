package memmodel

import "memsynth/internal/litmus"

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
		axioms: powerAxioms(variantARMv8),
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
