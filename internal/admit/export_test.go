package admit

import "memsynth/internal/relation"

// PinnedCases exposes pinnedCases to the external test package, whose
// forced-edge gate replays the same counterexamples.
var PinnedCases = pinnedCases

// SupportedBuiltins exposes supportedBuiltins to the external test
// package.
var SupportedBuiltins = supportedBuiltins

// AppGraphs returns the graphs Decide saturates for relaxation
// application i of the bound program: their static bases and whether each
// includes only the cross-thread rf edges.
func AppGraphs(c *Checker, i int) (bases []relation.Rel, rfExternal []bool) {
	a := c.appCtxFor(i)
	for k, d := range c.decls {
		bases = append(bases, d.Static(&a.StaticCtx))
		rfExternal = append(rfExternal, a.graphs[k].rfExternal)
	}
	return bases, rfExternal
}

// UnionCo returns the co edges c's last Decide forced across
// applications, which Extends reads.
func UnionCo(c *Checker) relation.Rel { return c.unionCo }

// ActiveGraphs returns the indices, in declaration order, of the graphs
// Decide saturates for relaxation application i of the bound program:
// those no other graph subsumes.
func ActiveGraphs(c *Checker, i int) []int {
	return append([]int(nil), c.appCtxFor(i).active...)
}

// ClosedGraphs returns the closed static base of each graph, as Decide's
// slot keeps it, and whether each includes only the cross-thread rf edges,
// for relaxation application i of the bound program, or for the
// unperturbed program when i < 0, with the slot's live events.
func ClosedGraphs(c *Checker, i int) (closed []relation.Rel, rfExternal []bool, live relation.Set) {
	a := c.baseCtx()
	if i >= 0 {
		a = c.appCtxFor(i)
	}
	for _, g := range a.graphs {
		closed = append(closed, g.closed.Clone())
		rfExternal = append(rfExternal, g.rfExternal)
	}
	return closed, rfExternal, a.Live()
}

// BaseForcedCo saturates the unperturbed program for rf, reporting
// whether it admits rf and the co edges it forces. It leaves the result
// of c's last Decide as it was.
func BaseForcedCo(c *Checker, rf []int) (bool, relation.Rel) {
	refuted := c.saturate(c.baseCtx(), rf)
	return !refuted, c.fco.Clone()
}
