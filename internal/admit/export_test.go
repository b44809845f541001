package admit

// PinnedCases exposes pinnedCases to the external test package, whose
// forced-edge gate replays the same counterexamples.
var PinnedCases = pinnedCases
