package memsynth_test

import (
	"strings"
	"testing"

	"memsynth"
)

func TestModelsRoster(t *testing.T) {
	models := memsynth.Models()
	if len(models) != 8 {
		t.Fatalf("Models() = %d, want 8", len(models))
	}
	names := map[string]bool{}
	for _, m := range models {
		names[m.Name()] = true
	}
	for _, want := range []string{"sc", "tso", "power", "armv7", "armv8", "scc", "c11", "hsa"} {
		if !names[want] {
			t.Errorf("model %q missing", want)
		}
	}
	if _, err := memsynth.ModelByName("nope"); err == nil {
		t.Error("ModelByName(nope) should fail")
	}
}

func TestFacadeSynthesisAndMinimality(t *testing.T) {
	tso, err := memsynth.ModelByName("tso")
	if err != nil {
		t.Fatal(err)
	}
	res := memsynth.Synthesize(tso, memsynth.Options{MaxEvents: 3})
	if len(res.Union.Entries) == 0 {
		t.Fatal("empty union suite")
	}
	for _, e := range res.Union.Entries {
		ok := false
		for _, i := range memsynth.CheckMinimal(tso, e.Exec).MinimalFor() {
			_ = i
			ok = true
		}
		if !ok {
			t.Errorf("suite entry not minimal: %v", e.Test)
		}
		if memsynth.CanonicalKey(e.Exec) != e.Key {
			t.Errorf("key mismatch for %v", e.Test)
		}
	}
}

func TestFacadeOutcomes(t *testing.T) {
	tso, _ := memsynth.ModelByName("tso")
	sb := memsynth.NewTest("SB", [][]memsynth.Op{
		{memsynth.W(0), memsynth.R(1)},
		{memsynth.W(1), memsynth.R(0)},
	})
	outcomes := memsynth.Outcomes(tso, sb)
	// One write per address and two reads, each with 2 rf choices: 4
	// candidate outcomes.
	if len(outcomes) != 4 {
		t.Fatalf("outcomes = %d, want 4", len(outcomes))
	}
	relaxed := func(x *memsynth.Execution) bool {
		return x.ReadValue(1) == 0 && x.ReadValue(3) == 0
	}
	if !memsynth.OutcomeAllowed(tso, sb, relaxed) {
		t.Error("SB relaxed outcome should be allowed under TSO")
	}
	sc, _ := memsynth.ModelByName("sc")
	if memsynth.OutcomeAllowed(sc, sb, relaxed) {
		t.Error("SB relaxed outcome should be forbidden under SC")
	}
}

func TestFacadeParseFormat(t *testing.T) {
	spec, err := memsynth.ParseTest(strings.NewReader(`
name: MP
T0: St x; St.rel y
T1: Ld.acq y; Ld x
forbid: 1:0=1 1:1=0
`))
	if err != nil {
		t.Fatal(err)
	}
	scc, _ := memsynth.ModelByName("scc")
	// The forbid spec must be forbidden under SCC and matched correctly.
	matched, allowed := false, false
	for _, o := range memsynth.Outcomes(scc, spec.Test) {
		if memsynth.MatchesOutcome(o.Exec, spec.Forbid) {
			matched = true
			if o.Valid {
				allowed = true
			}
		}
	}
	if !matched {
		t.Fatal("forbid spec matched no execution")
	}
	if allowed {
		t.Error("forbid spec allowed under SCC")
	}
	text := memsynth.FormatTest(spec.Test)
	if !strings.Contains(text, "St.rel y") {
		t.Errorf("FormatTest output missing instruction: %q", text)
	}
}

func TestFacadeBaselines(t *testing.T) {
	if len(memsynth.OwensSuite()) != 24 {
		t.Errorf("Owens suite = %d entries", len(memsynth.OwensSuite()))
	}
	if len(memsynth.CambridgeSuite()) < 25 {
		t.Errorf("Cambridge suite = %d entries", len(memsynth.CambridgeSuite()))
	}
}

func TestFacadeDiy(t *testing.T) {
	ws := memsynth.DiyGenerate(memsynth.DiyTSOAlphabet(), 3, 3)
	if len(ws) == 0 {
		t.Fatal("diy generated nothing")
	}
	if len(memsynth.DiyPowerAlphabet()) <= len(memsynth.DiyTSOAlphabet()) {
		t.Error("power alphabet should be larger than TSO's")
	}
}

func TestFacadeTSOMachine(t *testing.T) {
	mp := memsynth.NewTest("MP", [][]memsynth.Op{
		{memsynth.W(0), memsynth.W(1)},
		{memsynth.R(1), memsynth.R(0)},
	})
	out, err := memsynth.RunTSOMachine(mp)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no machine outcomes")
	}
}

func TestFacadeDefineModel(t *testing.T) {
	// SC defined through the public API behaves like the built-in.
	custom := memsynth.DefineModel("my-sc",
		[]memsynth.Axiom{{
			Name: "total_order",
			Holds: func(v *memsynth.View) bool {
				return v.Com().Union(v.PO()).Acyclic()
			},
		}},
		memsynth.Vocab{Ops: []memsynth.Op{memsynth.R(0), memsynth.W(0)}},
		memsynth.RelaxSpec{},
	)
	sb := memsynth.NewTest("SB", [][]memsynth.Op{
		{memsynth.W(0), memsynth.R(1)},
		{memsynth.W(1), memsynth.R(0)},
	})
	relaxed := func(x *memsynth.Execution) bool {
		return x.ReadValue(1) == 0 && x.ReadValue(3) == 0
	}
	if memsynth.OutcomeAllowed(custom, sb, relaxed) {
		t.Error("custom SC allows SB relaxation")
	}
	res := memsynth.Synthesize(custom, memsynth.Options{MaxEvents: 4})
	found := false
	sbKey := memsynth.CanonicalProgramKey(sb)
	for _, e := range res.Union.Entries {
		if memsynth.CanonicalProgramKey(e.Test) == sbKey {
			found = true
		}
	}
	if !found {
		t.Error("custom SC synthesis misses SB")
	}
}

func TestRelaxationsFacade(t *testing.T) {
	scc, _ := memsynth.ModelByName("scc")
	mp := memsynth.NewTest("MP", [][]memsynth.Op{
		{memsynth.W(0), memsynth.Wrel(1)},
		{memsynth.Racq(1), memsynth.R(0)},
	})
	apps := memsynth.Relaxations(scc, mp)
	if len(apps) != 6 { // 4 RI + 2 DMO
		t.Errorf("Relaxations = %d, want 6", len(apps))
	}
	tags := memsynth.RelaxationTags(scc)
	if len(tags) == 0 || tags[0] != "RI" {
		t.Errorf("RelaxationTags = %v", tags)
	}
}

// TestOutcomesQuantifySCOrders: the sc order is auxiliary, so Outcomes
// lists each (rf, co) execution once and calls it valid when some sc
// order admits it. On SB with an sc fence in each thread, scc forbids only
// the outcome where both loads read the initial values; each outcome
// where one load sees the other thread's store holds under one sc order
// and fails under the other, and must read as allowed, once.
func TestOutcomesQuantifySCOrders(t *testing.T) {
	spec, err := memsynth.ParseTest(strings.NewReader(`
name: SB+sc
T0: St x; F.sc; Ld y
T1: St y; F.sc; Ld x
`))
	if err != nil {
		t.Fatal(err)
	}
	scc, _ := memsynth.ModelByName("scc")
	want := map[string]bool{
		"r2=0 r5=0 [x]=1 [y]=1": false,
		"r2=0 r5=1 [x]=1 [y]=1": true,
		"r2=1 r5=0 [x]=1 [y]=1": true,
		"r2=1 r5=1 [x]=1 [y]=1": true,
	}
	outcomes := memsynth.Outcomes(scc, spec.Test)
	if len(outcomes) != len(want) {
		t.Errorf("%d outcomes, want one per (rf, co): %d", len(outcomes), len(want))
	}
	for _, o := range outcomes {
		key := o.Exec.OutcomeString()
		if valid, ok := want[key]; !ok || valid != o.Valid {
			t.Errorf("outcome %s valid=%v, want %v", key, o.Valid, valid)
		}
		if o.Valid && !memsynth.OutcomeAllowed(scc, spec.Test, func(x *memsynth.Execution) bool { return x.OutcomeString() == key }) {
			t.Errorf("OutcomeAllowed denies the allowed outcome %s", key)
		}
	}
}
