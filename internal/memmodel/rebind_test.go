package memmodel_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"memsynth/internal/admit"
	"memsynth/internal/canon"
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/minimal"
	"memsynth/internal/relation"
	"memsynth/internal/synth"
)

// ctxRecorder collects the static contexts a model's axioms are evaluated
// in, so that a test can inspect the pooled contexts of a checker without
// reaching into it.
type ctxRecorder map[*exec.StaticCtx]bool

// recording returns m with every axiom wrapped to record its evaluation
// context in rec. A graph axiom stays a graph axiom over the same static
// part, so admit saturates it and records its own contexts too.
func recording(m memmodel.Model, rec ctxRecorder) memmodel.Model {
	var axioms []memmodel.Axiom
	for _, a := range m.Axioms() {
		if g := a.Graph; g != nil {
			axioms = append(axioms, memmodel.Acyclic(a.Name, g.RFExternal(), func(c *exec.StaticCtx, dst relation.Rel) {
				rec[c] = true
				dst.CopyFrom(g.Static(c))
			}))
			continue
		}
		holds := a.Holds
		axioms = append(axioms, memmodel.Axiom{Name: a.Name, Holds: func(v *exec.View) bool {
			rec[v.StaticCtx] = true
			return holds(v)
		}})
	}
	return memmodel.Define(m.Name(), axioms, m.Vocab(), m.Relax())
}

// TestRebindMatchesFresh binds an even sample of the bound-4 stream of
// every builtin model, shuffled so that program sizes and models mix,
// through one pooled minimal.Checker
// and one pooled admit.Checker per model. After each program, every
// context the checkers evaluated in must hold exactly the static state of
// a freshly built context for the same (test, perturbation): every
// accessor and every memoized static value. The pooled checkers' Check
// verdicts and Decide/Extends answers must equal those of checkers built
// fresh for the program.
func TestRebindMatchesFresh(t *testing.T) {
	type job struct {
		m  memmodel.Model
		tt *litmus.Test
	}
	var jobs []job
	for _, m := range memmodel.All() {
		var programs []*litmus.Test
		seen := make(map[string]bool)
		err := synth.EnumeratePrograms(m.Vocab(), synth.Options{MaxEvents: 4}, func(tt *litmus.Test) bool {
			if key := canon.ProgramKey(tt); !seen[key] {
				seen[key] = true
				programs = append(programs, tt)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		// An even sample of the stream keeps every program size; the race
		// detector makes even that slow, so it samples more thinly.
		every := max(1, len(programs)/2000)
		if memmodel.RaceEnabled || testing.Short() {
			every = max(1, len(programs)/150)
		}
		for i := 0; i < len(programs); i += every {
			jobs = append(jobs, job{m, programs[i]})
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })

	type pooled struct {
		rec ctxRecorder
		chk *minimal.Checker
		adm *admit.Checker
	}
	pools := make(map[string]*pooled)
	for _, m := range memmodel.All() {
		rec := ctxRecorder{}
		rm := recording(m, rec)
		pools[m.Name()] = &pooled{rec: rec, chk: minimal.NewChecker(rm), adm: admit.NewChecker(rm)}
	}

	contexts, executions := 0, 0
	for _, j := range jobs {
		p := pools[j.m.Name()]
		clear(p.rec)
		p.chk.Bind(j.tt)
		fresh := minimal.NewChecker(j.m)
		fresh.Bind(j.tt)
		var freshAdm *admit.Checker
		if p.adm != nil {
			p.adm.Bind(j.tt, p.chk.Apps())
			freshAdm = admit.NewChecker(j.m)
			freshAdm.Bind(j.tt, fresh.Apps())
		}
		opts := exec.EnumerateOptions{}
		if p.adm != nil {
			opts.RFFilter = func(rf []int) bool {
				if got, want := p.adm.Decide(rf), freshAdm.Decide(rf); got != want {
					t.Fatalf("%s: Decide(%v) = %v pooled, %v fresh\n%s", j.m.Name(), rf, got, want, j.tt)
				}
				return true
			}
		}
		exec.Enumerate(j.tt, opts, func(x *exec.Execution) bool {
			executions++
			if p.adm != nil {
				if got, want := p.adm.Extends(x.CO), freshAdm.Extends(x.CO); got != want {
					t.Fatalf("%s: Extends(%v) = %v pooled, %v fresh\n%s", j.m.Name(), x.CO, got, want, j.tt)
				}
			}
			if got, want := p.chk.Check(x), fresh.Check(x); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Check(%s) = %+v pooled, %+v fresh\n%s", j.m.Name(), x, got, want, j.tt)
			}
			return true
		})
		for c := range p.rec {
			contexts++
			if err := sameStatic(j.m, c, exec.NewStaticCtx(c.Test(), c.Perturbation())); err != nil {
				t.Fatalf("%s under %v: pooled context differs from a fresh one: %v\n%s",
					j.m.Name(), c.Perturbation(), err, c.Test())
			}
		}
	}
	if contexts == 0 || executions == 0 {
		t.Fatal("no contexts inspected; the gate is vacuous")
	}
	t.Logf("%d programs, %d executions, %d contexts inspected", len(jobs), executions, contexts)
}

// sameStatic compares every accessor and memoized static value of the
// pooled context got with those of the fresh context want, for model m.
func sameStatic(m memmodel.Model, got, want *exec.StaticCtx) error {
	if got.Test() != want.Test() || got.Perturbation() != want.Perturbation() || got.N() != want.N() {
		return fmt.Errorf("bound to %v/%d events, want %v/%d", got.Perturbation(), got.N(), want.Perturbation(), want.N())
	}
	sets := map[string][2]relation.Set{
		"Live":   {got.Live(), want.Live()},
		"Reads":  {got.Reads(), want.Reads()},
		"Writes": {got.Writes(), want.Writes()},
		"Fences": {got.Fences(), want.Fences()},
	}
	for a := 0; a < want.Test().NumAddrs(); a++ {
		sets[fmt.Sprintf("LiveWrites(%d)", a)] = [2]relation.Set{got.LiveWrites(a), want.LiveWrites(a)}
	}
	for name, s := range sets {
		if s[0] != s[1] {
			return fmt.Errorf("%s = %v, want %v", name, s[0], s[1])
		}
	}
	for id := range want.Test().Events {
		if got.OrderOf(id) != want.OrderOf(id) || got.FenceOf(id) != want.FenceOf(id) || got.ScopeOf(id) != want.ScopeOf(id) {
			return fmt.Errorf("event %d: effective order/fence/scope differ", id)
		}
	}
	rels := map[string][2]relation.Rel{
		"PO":              {got.PO(), want.PO()},
		"POLoc":           {got.POLoc(), want.POLoc()},
		"SameAddr":        {got.SameAddr(), want.SameAddr()},
		"Ext":             {got.Ext(), want.Ext()},
		"RMW":             {got.RMW(), want.RMW()},
		"DepAll":          {got.DepAll(), want.DepAll()},
		"ScopeCompatible": {got.ScopeCompatible(), want.ScopeCompatible()},
		"FenceRel(lwsync, sync)": {
			got.FenceRel(litmus.FLwSync, litmus.FSync), want.FenceRel(litmus.FLwSync, litmus.FSync),
		},
	}
	for _, d := range []litmus.DepType{litmus.DepAddr, litmus.DepData, litmus.DepCtrl} {
		rels[fmt.Sprintf("Dep(%v)", d)] = [2]relation.Rel{got.Dep(d), want.Dep(d)}
	}
	for k := litmus.FNone; k <= litmus.FRel; k++ {
		rels[fmt.Sprintf("FenceRel(%v)", k)] = [2]relation.Rel{got.FenceRel(k), want.FenceRel(k)}
	}
	for _, a := range m.Axioms() {
		if a.Graph != nil {
			rels["graph "+a.Name] = [2]relation.Rel{a.Graph.Static(got), a.Graph.Static(want)}
		}
	}
	gotRels, gotSets := memmodel.StaticBundle(m, got)
	wantRels, wantSets := memmodel.StaticBundle(m, want)
	for i := range wantRels {
		rels[fmt.Sprintf("bundle relation %d", i)] = [2]relation.Rel{gotRels[i], wantRels[i]}
	}
	if !reflect.DeepEqual(gotSets, wantSets) {
		return fmt.Errorf("bundle sets %v, want %v", gotSets, wantSets)
	}
	for name, r := range rels {
		if !r[0].Equal(r[1]) {
			return fmt.Errorf("%s = %v over %d atoms, want %v over %d", name, r[0], r[0].N(), r[1], r[1].N())
		}
	}
	return nil
}
