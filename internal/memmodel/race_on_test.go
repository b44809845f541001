//go:build race

package memmodel

// raceEnabled reports whether the test binary was built with the race
// detector: the allocation gates skip under it, and the rebind stream is
// sampled.
const raceEnabled = true
