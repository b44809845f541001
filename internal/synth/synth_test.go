package synth

import (
	"testing"

	"memsynth/internal/canon"
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
)

func TestPartitions(t *testing.T) {
	got := partitions(4, 4)
	want := [][]int{{4}, {3, 1}, {2, 2}, {2, 1, 1}, {1, 1, 1, 1}}
	if len(got) != len(want) {
		t.Fatalf("partitions(4,4) = %v", got)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("partitions(4,4) = %v", got)
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("partitions(4,4) = %v", got)
			}
		}
	}
	if got := partitions(5, 2); len(got) != 3 { // 5, 4+1, 3+2
		t.Errorf("partitions(5,2) = %v", got)
	}
}

// suiteHasProgram reports whether the suite contains an entry whose program
// is symmetric to t.
func suiteHasProgram(s *Suite, t *litmus.Test) bool {
	key := canon.ProgramKey(t)
	for _, e := range s.Entries {
		if canon.ProgramKey(e.Test) == key {
			return true
		}
	}
	return false
}

func TestTSOBound2Coherence(t *testing.T) {
	res := Synthesize(memmodel.TSO(), Options{MaxEvents: 2})
	spl := res.PerAxiom["sc_per_loc"]
	// The three 2-instruction coherence violations: CoWW, CoWR, CoRW1.
	if len(spl.Entries) != 3 {
		for _, e := range spl.Entries {
			t.Logf("sc_per_loc: %v / %s", e.Test, e.Exec.OutcomeString())
		}
		t.Fatalf("sc_per_loc@2 = %d tests, want 3", len(spl.Entries))
	}
	coWW := litmus.New("CoWW", [][]litmus.Op{{litmus.W(0), litmus.W(0)}})
	coWR := litmus.New("CoWR", [][]litmus.Op{{litmus.W(0), litmus.R(0)}})
	coRW1 := litmus.New("CoRW1", [][]litmus.Op{{litmus.R(0), litmus.W(0)}})
	for _, want := range []*litmus.Test{coWW, coWR, coRW1} {
		if !suiteHasProgram(spl, want) {
			t.Errorf("sc_per_loc@2 missing %s", want.Name)
		}
	}
	// CoWW also violates TSO causality (W->W is preserved program order).
	if got := len(res.PerAxiom["causality"].Entries); got != 1 {
		t.Errorf("causality@2 = %d tests, want 1 (CoWW)", got)
	}
	if got := len(res.PerAxiom["rmw_atomicity"].Entries); got != 0 {
		t.Errorf("rmw_atomicity@2 = %d tests, want 0", got)
	}
	if got := len(res.Union.Entries); got != 3 {
		t.Errorf("union@2 = %d tests, want 3", got)
	}
}

func TestTSOBound4ClassicTests(t *testing.T) {
	res := Synthesize(memmodel.TSO(), Options{MaxEvents: 4})
	caus := res.PerAxiom["causality"]

	classics := map[string]*litmus.Test{
		"MP":   litmus.New("MP", [][]litmus.Op{{litmus.W(0), litmus.W(1)}, {litmus.R(1), litmus.R(0)}}),
		"LB":   litmus.New("LB", [][]litmus.Op{{litmus.R(0), litmus.W(1)}, {litmus.R(1), litmus.W(0)}}),
		"S":    litmus.New("S", [][]litmus.Op{{litmus.W(0), litmus.W(1)}, {litmus.R(1), litmus.W(0)}}),
		"2+2W": litmus.New("2+2W", [][]litmus.Op{{litmus.W(0), litmus.W(1)}, {litmus.W(1), litmus.W(0)}}),
	}
	for name, prog := range classics {
		if !suiteHasProgram(caus, prog) {
			t.Errorf("causality@4 missing %s", name)
		}
	}

	// SB's relaxed outcome is allowed under TSO, so SB must NOT appear.
	sb := litmus.New("SB", [][]litmus.Op{{litmus.W(0), litmus.R(1)}, {litmus.W(1), litmus.R(0)}})
	if suiteHasProgram(caus, sb) {
		t.Error("causality@4 contains SB, which TSO allows")
	}

	// rmw_atomicity saturates at its 3-instruction tests.
	if got := len(res.PerAxiom["rmw_atomicity"].Entries); got == 0 {
		t.Error("rmw_atomicity@4 empty")
	}
}

func TestTSORMWAtomicitySaturation(t *testing.T) {
	// Paper Fig. 12/13b: the rmw_atomicity suite saturates — identical
	// counts at bound 4 and 5.
	res4 := Synthesize(memmodel.TSO(), Options{MaxEvents: 4})
	res5 := Synthesize(memmodel.TSO(), Options{MaxEvents: 5})
	n4 := len(res4.PerAxiom["rmw_atomicity"].Entries)
	n5 := len(res5.PerAxiom["rmw_atomicity"].Entries)
	if n4 == 0 || n4 != n5 {
		t.Errorf("rmw_atomicity not saturated: bound4=%d bound5=%d", n4, n5)
	}
	// sc_per_loc saturates as well (paper: at ten tests).
	s4 := len(res4.PerAxiom["sc_per_loc"].Entries)
	s5 := len(res5.PerAxiom["sc_per_loc"].Entries)
	if s4 == 0 || s4 != s5 {
		t.Errorf("sc_per_loc not saturated: bound4=%d bound5=%d", s4, s5)
	}
	// causality keeps growing.
	c4 := len(res4.PerAxiom["causality"].Entries)
	c5 := len(res5.PerAxiom["causality"].Entries)
	if c5 <= c4 {
		t.Errorf("causality did not grow: bound4=%d bound5=%d", c4, c5)
	}
}

func TestTSOSaturationCountsMatchPaper(t *testing.T) {
	// Paper §6.1 / Fig. 13b: "sc_per_loc and rmw_atomicity saturate at ten
	// and four tests, respectively". Our synthesis reproduces the exact
	// counts.
	res := Synthesize(memmodel.TSO(), Options{MaxEvents: 5})
	if got := len(res.PerAxiom["sc_per_loc"].Entries); got != 10 {
		t.Errorf("sc_per_loc saturates at %d, paper says 10", got)
	}
	if got := len(res.PerAxiom["rmw_atomicity"].Entries); got != 4 {
		t.Errorf("rmw_atomicity saturates at %d, paper says 4", got)
	}
	// Paper §6.1: "sc_per_loc contains ten tests, but six overlap with
	// causality" — Fig. 11 shows the four non-overlapping ones.
	overlap := 0
	for _, e := range res.PerAxiom["sc_per_loc"].Entries {
		if res.PerAxiom["causality"].Has(e.Key) {
			overlap++
		}
	}
	if overlap != 6 {
		t.Errorf("sc_per_loc/causality overlap = %d, paper says 6", overlap)
	}
}

func TestSCSynthesisSubsetOfTSO(t *testing.T) {
	// Everything SC forbids at small bounds includes the TSO-forbidden
	// tests; in particular SB (forbidden under SC, allowed under TSO)
	// appears in the SC suite but not in TSO's.
	res := Synthesize(memmodel.SC(), Options{MaxEvents: 4})
	sb := litmus.New("SB", [][]litmus.Op{{litmus.W(0), litmus.R(1)}, {litmus.W(1), litmus.R(0)}})
	if !suiteHasProgram(res.PerAxiom["sc_order"], sb) {
		t.Error("SC sc_order@4 missing SB")
	}
}

func TestPruningPreservesSuites(t *testing.T) {
	// The two prunes are pure optimizations: suites must be identical
	// with and without them.
	for _, m := range []memmodel.Model{memmodel.TSO(), memmodel.SCC()} {
		fast := Synthesize(m, Options{MaxEvents: 3})
		slow := Synthesize(m, Options{MaxEvents: 3, KeepTrivialFences: true, KeepIsolatedAddrs: true})
		for name, fs := range fast.PerAxiom {
			ss := slow.PerAxiom[name]
			if len(fs.Entries) != len(ss.Entries) {
				t.Errorf("%s/%s: pruned=%d unpruned=%d", m.Name(), name, len(fs.Entries), len(ss.Entries))
				continue
			}
			for _, e := range fs.Entries {
				if !ss.Has(e.Key) {
					t.Errorf("%s/%s: pruned suite has extra %v", m.Name(), name, e.Test)
				}
			}
		}
		if fast.Stats.ProgramsRaw >= slow.Stats.ProgramsRaw {
			t.Errorf("%s: pruning did not reduce programs (%d vs %d)",
				m.Name(), fast.Stats.ProgramsRaw, slow.Stats.ProgramsRaw)
		}
	}
}

func TestSCCSynthesisFindsMP(t *testing.T) {
	res := Synthesize(memmodel.SCC(), Options{MaxEvents: 4})
	// Paper Fig. 1: MP with one release and one acquire is minimal for
	// SCC causality; the over-synchronized Fig. 2 variant is not.
	mp := litmus.New("MP+ra", [][]litmus.Op{
		{litmus.W(0), litmus.Wrel(1)},
		{litmus.Racq(1), litmus.R(0)},
	})
	over := litmus.New("MP+rara", [][]litmus.Op{
		{litmus.Wrel(0), litmus.Wrel(1)},
		{litmus.Racq(1), litmus.Racq(0)},
	})
	caus := res.PerAxiom["causality"]
	if !suiteHasProgram(caus, mp) {
		t.Error("SCC causality@4 missing MP+rel+acq")
	}
	if suiteHasProgram(caus, over) {
		t.Error("SCC causality@4 contains over-synchronized MP (not minimal)")
	}
}

func TestParallelSynthesisMatchesSequential(t *testing.T) {
	for _, m := range []memmodel.Model{memmodel.TSO(), memmodel.SCC()} {
		seq := Synthesize(m, Options{MaxEvents: 4, CountForbidden: true})
		par := Synthesize(m, Options{MaxEvents: 4, CountForbidden: true, Workers: 4})
		if seq.Stats.Programs != par.Stats.Programs ||
			seq.Stats.Executions != par.Stats.Executions ||
			seq.Stats.ForbiddenOutcomes != par.Stats.ForbiddenOutcomes {
			t.Errorf("%s: stats differ: seq=%+v par=%+v", m.Name(), seq.Stats, par.Stats)
		}
		for name, ss := range seq.PerAxiom {
			ps := par.PerAxiom[name]
			if len(ss.Entries) != len(ps.Entries) {
				t.Errorf("%s/%s: %d vs %d entries", m.Name(), name, len(ss.Entries), len(ps.Entries))
				continue
			}
			for i := range ss.Entries {
				if ss.Entries[i].Key != ps.Entries[i].Key {
					t.Errorf("%s/%s: entry %d keys differ", m.Name(), name, i)
					break
				}
			}
		}
	}
}

func TestUnionMatchesPerAxiom(t *testing.T) {
	res := Synthesize(memmodel.TSO(), Options{MaxEvents: 4})
	// Union = distinct keys across the per-axiom suites (paper §5.2).
	keys := map[string]bool{}
	for _, s := range res.PerAxiom {
		for _, e := range s.Entries {
			keys[e.Key] = true
		}
	}
	if len(keys) != len(res.Union.Entries) {
		t.Errorf("union = %d, distinct per-axiom keys = %d", len(res.Union.Entries), len(keys))
	}
	// Overlap means the union is smaller than the sum (CoWW is in both
	// sc_per_loc and causality).
	sum := 0
	for _, s := range res.PerAxiom {
		sum += len(s.Entries)
	}
	if sum <= len(res.Union.Entries) {
		t.Errorf("expected axiom overlap: sum=%d union=%d", sum, len(res.Union.Entries))
	}
}

func TestCountForbidden(t *testing.T) {
	res := Synthesize(memmodel.TSO(), Options{MaxEvents: 3, CountForbidden: true})
	if res.Stats.ForbiddenOutcomes == 0 {
		t.Error("no forbidden outcomes counted")
	}
	if res.Stats.ForbiddenOutcomes < len(res.Union.Entries) {
		t.Errorf("forbidden (%d) < minimal (%d)", res.Stats.ForbiddenOutcomes, len(res.Union.Entries))
	}
}

// TestCountForbiddenEnumeratesAll: a counting run needs every forbidden
// outcome, and the admit filter skips the reads-from assignments it
// refutes, so counting turns admit off. With default admit the count must
// equal an admit-off run's and the paper's Fig. 13a census.
func TestCountForbiddenEnumeratesAll(t *testing.T) {
	for _, tc := range []struct {
		model memmodel.Model
		want  int
	}{{memmodel.SC(), 1287}, {memmodel.TSO(), 1382}} {
		res := Synthesize(tc.model, Options{MaxEvents: 4, CountForbidden: true})
		off := Synthesize(tc.model, Options{MaxEvents: 4, CountForbidden: true, Admit: "off"})
		if res.Stats.ForbiddenOutcomes != tc.want || off.Stats.ForbiddenOutcomes != tc.want {
			t.Errorf("%s@4: ForbiddenOutcomes = %d (admit default), %d (admit off), want %d",
				tc.model.Name(), res.Stats.ForbiddenOutcomes, off.Stats.ForbiddenOutcomes, tc.want)
		}
		if res.Admit != "off" || res.Stats.ExecutionsFast != 0 {
			t.Errorf("%s@4: counting run has Admit %q and %d fast-decided executions, want \"off\" and 0",
				tc.model.Name(), res.Admit, res.Stats.ExecutionsFast)
		}
	}
}

func TestEntriesAreMinimalWitnesses(t *testing.T) {
	// Every emitted entry must carry a valid forbidden execution of its
	// own test.
	res := Synthesize(memmodel.TSO(), Options{MaxEvents: 4})
	m := memmodel.TSO()
	for _, e := range res.Union.Entries {
		v := exec.NewView(e.Exec, exec.NoPerturb)
		if memmodel.Valid(m, v) {
			t.Errorf("entry %v / %s: execution is valid (not forbidden)", e.Test, e.Exec.OutcomeString())
		}
		if e.Exec.Test != e.Test {
			t.Errorf("entry %v: execution detached from test", e.Test)
		}
	}
}

func TestCountUpTo(t *testing.T) {
	res := Synthesize(memmodel.TSO(), Options{MaxEvents: 4})
	u := res.Union
	if u.CountUpTo(2) >= u.CountUpTo(4) {
		t.Errorf("CountUpTo not monotone: %d vs %d", u.CountUpTo(2), u.CountUpTo(4))
	}
	if u.CountUpTo(4) != len(u.Entries) {
		t.Errorf("CountUpTo(max) != len: %d vs %d", u.CountUpTo(4), len(u.Entries))
	}
}

func TestHSASynthesisScoped(t *testing.T) {
	// At bound 3 the HSA suite covers coherence-style tests; scoped
	// synchronization patterns need four events and are checked directly
	// in package minimal. Here we check the suite is nonempty and that
	// group enumeration produced multi-group tests among the programs.
	res := Synthesize(memmodel.HSA(), Options{MaxEvents: 3, MaxThreads: 2})
	if len(res.Union.Entries) == 0 {
		t.Fatal("HSA union empty at bound 3")
	}
	for _, e := range res.Union.Entries {
		if err := e.Test.Validate(); err != nil {
			t.Fatalf("invalid synthesized test: %v", err)
		}
	}
}
