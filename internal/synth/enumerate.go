package synth

import (
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
)

// EnumeratePrograms streams every litmus-test program the synthesis engine
// would generate for the given vocabulary and bounds, in the engine's
// deterministic generation order and without symmetry dedupe (the counts
// match Stats.ProgramsRaw). The emit callback returns false to stop the
// enumeration early. Analysis passes — notably the catlint tier-2
// semantic checks — reuse the engine's generator this way instead of
// reimplementing the program space.
func EnumeratePrograms(vocab memmodel.Vocab, opts Options, emit func(*litmus.Test) bool) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	opts = opts.withDefaults()
	g := newGenerator(vocab, opts, ShardSpec{Index: 0, Stride: 1})
	for n := opts.MinEvents; n <= opts.MaxEvents; n++ {
		if !g.run(n, emit) {
			return nil
		}
	}
	return nil
}
