package admit_test

import (
	"testing"

	"memsynth/internal/admit"
	"memsynth/internal/canon"
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/synth"
)

// decideProgram is one program of a Decide corpus with every rf
// assignment Decide sees for it.
type decideProgram struct {
	t    *litmus.Test
	apps []exec.Perturb
	rfs  [][]int
}

// decideCorpus takes every stride-th program of m's stream under opts,
// once per symmetry class, with all of its rf assignments.
func decideCorpus(b *testing.B, m memmodel.Model, opts synth.Options, stride int) []decideProgram {
	var progs []decideProgram
	seen := make(map[string]bool)
	raw := 0
	err := synth.EnumeratePrograms(m.Vocab(), opts, func(tt *litmus.Test) bool {
		raw++
		if (raw-1)%stride != 0 {
			return true
		}
		key := canon.ProgramKey(tt)
		if seen[key] {
			return true
		}
		seen[key] = true
		p := decideProgram{t: tt, apps: memmodel.Applications(m, tt)}
		exec.Enumerate(tt, exec.EnumerateOptions{RFFilter: func(rf []int) bool {
			p.rfs = append(p.rfs, append([]int(nil), rf...))
			return false
		}}, func(*exec.Execution) bool { return true })
		if len(p.rfs) > 0 {
			progs = append(progs, p)
		}
		return true
	})
	if err != nil {
		b.Fatal(err)
	}
	return progs
}

// BenchmarkDecide replays Decide over a pinned corpus, one op per call:
// every rf assignment of a fixed sample of the single-address tso@7
// stream and of the power@5 stream, binding each program before its
// first assignment as the engine does.
func BenchmarkDecide(b *testing.B) {
	for _, c := range []struct {
		name   string
		model  string
		opts   synth.Options
		stride int
	}{
		{"tso7-a1", "tso", synth.Options{MaxEvents: 7, MaxAddrs: 1}, 40},
		{"power5", "power", synth.Options{MaxEvents: 5}, 1000},
	} {
		m, err := memmodel.ByName(c.model)
		if err != nil {
			b.Fatal(err)
		}
		progs := decideCorpus(b, m, c.opts, c.stride)
		calls := 0
		for _, p := range progs {
			calls += len(p.rfs)
		}
		b.Run(c.name, func(b *testing.B) {
			adm := admit.NewChecker(m)
			for _, p := range progs { // size every slot and buffer
				adm.Bind(p.t, p.apps)
				adm.Decide(p.rfs[0])
			}
			b.ReportAllocs()
			b.ResetTimer()
			p, k := len(progs)-1, len(progs[len(progs)-1].rfs)
			for i := 0; i < b.N; i++ {
				if k == len(progs[p].rfs) {
					p, k = (p+1)%len(progs), 0
					adm.Bind(progs[p].t, progs[p].apps)
				}
				adm.Decide(progs[p].rfs[k])
				k++
			}
			b.ReportMetric(float64(calls), "corpus_calls")
		})
	}
}
