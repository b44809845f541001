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
