package canon_test

import (
	"sync"
	"testing"

	"memsynth/internal/canon"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/synth"
)

var (
	power5Once     sync.Once
	power5Programs []*litmus.Test
	keySink        string
)

// power5Stream returns the power bound-5 program stream the engine dedupes
// (289,547 programs, every size from 2 to 5), in generation order.
func power5Stream(b *testing.B) []*litmus.Test {
	power5Once.Do(func() {
		err := synth.EnumeratePrograms(memmodel.Power().Vocab(), synth.Options{MaxEvents: 5}, func(t *litmus.Test) bool {
			power5Programs = append(power5Programs, t)
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
	})
	return power5Programs
}

// BenchmarkProgramKey is the dedupe layer's per-call cost: one ProgramKey
// per op, cycling through the power@5 program stream.
func BenchmarkProgramKey(b *testing.B) {
	programs := power5Stream(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keySink = canon.ProgramKey(programs[i%len(programs)])
	}
}
