package admit

import (
	"testing"

	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/minimal"
	"memsynth/internal/randgen"
)

func TestSupports(t *testing.T) {
	want := map[string]bool{
		"sc": true, "tso": true,
		"power": true, "armv7": true, "armv8": true,
		"scc": true, "hsa": true,
		"c11": false,
	}
	for name, supported := range want {
		m, err := memmodel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ok, reason := Supports(m)
		if ok != supported {
			t.Errorf("Supports(%s) = %v, want %v (%s)", name, ok, supported, reason)
		}
		if !ok && reason == "" {
			t.Errorf("Supports(%s): unsupported with empty reason", name)
		}
		if ok && reason != "" {
			t.Errorf("Supports(%s): supported with reason %q", name, reason)
		}
		if (NewChecker(m) != nil) != supported {
			t.Errorf("NewChecker(%s) nil-ness disagrees with Supports", name)
		}
	}
}

func TestModelsCapabilityMatrix(t *testing.T) {
	caps := Models()
	if len(caps) != len(memmodel.All()) {
		t.Fatalf("Models() returned %d capabilities, want %d", len(caps), len(memmodel.All()))
	}
	var unsupported []string
	for i, c := range caps {
		if i > 0 && caps[i-1].Model >= c.Model {
			t.Errorf("Models() not sorted: %q before %q", caps[i-1].Model, c.Model)
		}
		if c.Supported {
			if c.Reason != "" {
				t.Errorf("%s: supported with reason %q", c.Model, c.Reason)
			}
		} else {
			unsupported = append(unsupported, c.Model)
			if c.Reason == "" {
				t.Errorf("%s: unsupported with empty reason", c.Model)
			}
		}
	}
	if len(unsupported) != 1 || unsupported[0] != "c11" {
		t.Errorf("Models() reports %v unsupported, want only c11", unsupported)
	}
}

// pinnedCases holds (model, seed) pairs that once produced a
// counterexample in TestDecideAgreesWithEnumeration, so every regression
// stays covered. A failure prints the pair to add here.
var pinnedCases = []struct {
	Model string
	Seed  int64
}{}

// supportedBuiltins returns the names of the builtin models that take the
// fast path.
func supportedBuiltins() []string {
	var names []string
	for _, m := range memmodel.All() {
		if ok, _ := Supports(m); ok {
			names = append(names, m.Name())
		}
	}
	return names
}

// TestDecideAgreesWithEnumeration is the randomized differential property
// behind the byte-identity guarantee: for random programs of every
// supported builtin, every reads-from assignment Decide refutes must
// contain no minimal execution among its enumerated extensions — checked
// execution-for-execution against exec.Enumerate + minimal.Checker. It
// also demands the filter is not vacuous for any model (something is
// refuted across each model's corpus).
func TestDecideAgreesWithEnumeration(t *testing.T) {
	type caseID struct {
		model string
		seed  int64
	}
	var cases []caseID
	// The whole corpus takes well under a second, and fewer seeds leave
	// some models without a refutation, so -short keeps all of them.
	const seeds = 60
	models := supportedBuiltins()
	for _, name := range models {
		for seed := int64(1); seed <= seeds; seed++ {
			cases = append(cases, caseID{name, seed})
		}
	}
	for _, p := range pinnedCases {
		cases = append(cases, caseID{p.Model, p.Seed})
	}

	refutedRF := make(map[string]int)
	for _, tc := range cases {
		m, err := memmodel.ByName(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		adm := NewChecker(m)
		if adm == nil {
			t.Fatalf("no checker for supported model %s", tc.model)
		}
		tt := randgen.New(m, randgen.Options{MaxEvents: 5}, tc.seed).Test()
		checker := minimal.NewChecker(m)
		checker.Bind(tt)
		adm.Bind(tt, checker.Apps())

		refuted := false
		exec.Enumerate(tt, exec.EnumerateOptions{
			RFFilter: func(rf []int) bool {
				refuted = !adm.Decide(rf)
				if refuted {
					refutedRF[tc.model]++
				}
				return true // descend regardless; every extension is re-checked
			},
		}, func(x *exec.Execution) bool {
			if refuted && len(checker.Check(x).MinimalFor()) > 0 {
				t.Fatalf("%s seed %d: refuted rf %v contains a minimal execution (co=%v) — pin {%q, %d} in pinnedCases",
					tc.model, tc.seed, x.RF, x.CO, tc.model, tc.seed)
			}
			return true
		})
	}
	for _, name := range models {
		if refutedRF[name] == 0 {
			t.Errorf("%s: filter refuted nothing across the random corpus; its fast path is vacuous", name)
		}
	}
	t.Logf("refuted rf assignments per model: %v", refutedRF)
}

// TestDecideDeterministic: the verdict for one rf assignment must not
// depend on the order assignments are presented in (the fail-fast
// move-to-front ordering may only change speed, never answers).
func TestDecideDeterministic(t *testing.T) {
	m, err := memmodel.ByName("tso")
	if err != nil {
		t.Fatal(err)
	}
	tt := randgen.New(m, randgen.Options{MaxEvents: 6}, 7).Test()
	apps := memmodel.Applications(m, tt)

	var rfs [][]int
	verdicts := make(map[int]bool)
	adm := NewChecker(m)
	adm.Bind(tt, apps)
	exec.Enumerate(tt, exec.EnumerateOptions{
		RFFilter: func(rf []int) bool {
			rfs = append(rfs, append([]int(nil), rf...))
			verdicts[len(rfs)-1] = adm.Decide(rf)
			return false // rf sweep only
		},
	}, func(*exec.Execution) bool { return true })

	fresh := NewChecker(m)
	fresh.Bind(tt, apps)
	for i := len(rfs) - 1; i >= 0; i-- { // reversed presentation order
		if got := fresh.Decide(rfs[i]); got != verdicts[i] {
			t.Fatalf("rf %v: verdict %v in forward order, %v reversed", rfs[i], verdicts[i], got)
		}
	}
}

// benchmarkAdmit measures the explore work for a corpus of random
// programs: the engine's fast path (Decide per rf assignment, enumerating
// only admitted subtrees, and checking only the coherence orders that keep
// every forced edge) against plain exhaustive enumeration, which applies
// the full minimality criterion to every execution.
func benchmarkAdmit(b *testing.B, model string, bound int, fast bool) {
	m, err := memmodel.ByName(model)
	if err != nil {
		b.Fatal(err)
	}
	var tests []*litmus.Test
	for seed := int64(1); seed <= 10; seed++ {
		tests = append(tests, randgen.New(m, randgen.Options{MaxEvents: bound}, seed).Test())
	}
	checker := minimal.NewChecker(m)
	adm := NewChecker(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tt := range tests {
			checker.Bind(tt)
			opts := exec.EnumerateOptions{}
			if fast {
				adm.Bind(tt, checker.Apps())
				opts.RFFilter = adm.Decide
			}
			exec.Enumerate(tt, opts, func(x *exec.Execution) bool {
				if fast && !adm.Extends(x.CO) {
					return true
				}
				checker.Check(x)
				return true
			})
		}
	}
}

func BenchmarkAdmitFastSC5(b *testing.B)  { benchmarkAdmit(b, "sc", 5, true) }
func BenchmarkAdmitEnumSC5(b *testing.B)  { benchmarkAdmit(b, "sc", 5, false) }
func BenchmarkAdmitFastTSO5(b *testing.B) { benchmarkAdmit(b, "tso", 5, true) }
func BenchmarkAdmitEnumTSO5(b *testing.B) { benchmarkAdmit(b, "tso", 5, false) }
func BenchmarkAdmitFastTSO7(b *testing.B) { benchmarkAdmit(b, "tso", 7, true) }
func BenchmarkAdmitEnumTSO7(b *testing.B) { benchmarkAdmit(b, "tso", 7, false) }
