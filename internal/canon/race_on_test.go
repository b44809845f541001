//go:build race

package canon_test

// raceEnabled reports whether the test binary was built with the race
// detector; the bound-5/6 reference streams are too slow under it.
const raceEnabled = true
