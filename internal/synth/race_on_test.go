//go:build race

package synth

// raceEnabled reports whether the test binary was built with the race
// detector; the full power@5 and tso@6 streams are too slow under it.
const raceEnabled = true
