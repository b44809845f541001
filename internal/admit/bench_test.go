package admit_test

import (
	"context"
	"fmt"
	"testing"
	"time"

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
// stream, of the multi-address tso@6 stream and of the power@5 stream,
// binding each program before its first assignment as the engine does.
// On single-address tso sc_per_loc subsumes causality in every slot, so
// one graph is saturated; on multi-address tso@6 both graphs often stay.
func BenchmarkDecide(b *testing.B) {
	for _, c := range []struct {
		name   string
		model  string
		opts   synth.Options
		stride int
	}{
		{"tso7-a1", "tso", synth.Options{MaxEvents: 7, MaxAddrs: 1}, 40},
		{"tso6", "tso", synth.Options{MaxEvents: 6}, 20},
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

// admitBenchTimeout is the timeout of the committed backend_cases rows,
// so the admit rows compare directly with them.
const admitBenchTimeout = 150 * time.Second

// BenchmarkAdmitSynth times whole synthesis runs on the enumeration
// engine's worst regime, single-address tso, whose factorially many
// coherence orders admit prunes whenever saturation refutes the rf
// assignment above them. Plain enumeration cannot finish tso@8/addrs=1
// within the timeout (the enum row of backend_cases); with admit on it
// must, and must prune.
func BenchmarkAdmitSynth(b *testing.B) {
	type admitCase struct {
		bound int
		admit string
	}
	cases := []admitCase{{7, "off"}, {7, "auto"}, {8, "auto"}}
	if testing.Short() {
		cases = []admitCase{{6, "off"}, {6, "auto"}}
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("tso@%d/addrs=1/admit=%s", c.bound, c.admit), func(b *testing.B) {
			var st synth.Stats
			for i := 0; i < b.N; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), admitBenchTimeout)
				res, err := synth.SynthesizeContext(ctx, memmodel.TSO(),
					synth.Options{MaxEvents: c.bound, MaxAddrs: 1, Admit: c.admit})
				cancel()
				if err != nil {
					b.Fatal(err)
				}
				switch st = res.Stats; {
				case st.Interrupted:
					b.Fatalf("hit the %v bench timeout", admitBenchTimeout)
				case c.admit != "off" && st.ExecutionsFast == 0:
					b.Fatal("admit pruned nothing")
				}
			}
			b.ReportMetric(float64(st.Executions), "executions")
			b.ReportMetric(float64(st.ExecutionsFast), "executions_fast")
		})
	}
}
