//go:build !race

package catlint

// raceEnabled reports whether the test binary was built with the race
// detector: the builtin tier-2 sweep skips under it.
const raceEnabled = false
