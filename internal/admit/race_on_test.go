//go:build race

package admit_test

// raceEnabled reports whether the test binary was built with the race
// detector; the declared-axiom reference stream is sampled under it.
const raceEnabled = true
