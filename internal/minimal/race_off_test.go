//go:build !race

package minimal

// raceEnabled reports whether the test binary was built with the race
// detector, whose instrumentation allocates: the allocation gates skip
// under it.
const raceEnabled = false
