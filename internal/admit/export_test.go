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
	for _, g := range c.appCtxFor(i).graphs {
		bases = append(bases, g.base)
		rfExternal = append(rfExternal, g.rfExternal)
	}
	return bases, rfExternal
}
