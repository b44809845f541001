package memmodel

import (
	"testing"

	"memsynth/internal/exec"
	"memsynth/internal/litmus"
)

// warmAllocs binds one pooled view to every program of progs in turn, with
// each program's perturbations, and evaluates eval on every execution,
// under each of its sc orders when useSC is set. It
// returns the allocations of a pass after a first pass has sized every
// buffer.
func warmAllocs(progs []*litmus.Test, useSC bool, eval func(v *exec.View)) float64 {
	type binding struct {
		t     *litmus.Test
		p     exec.Perturb
		execs []*exec.Execution
	}
	var bindings []binding
	for _, tt := range progs {
		var execs []*exec.Execution
		orders := Vocab{UsesSC: useSC}.SCOrders(tt)
		exec.Enumerate(tt, exec.EnumerateOptions{}, func(x *exec.Execution) bool {
			for _, sc := range orders {
				x.SC = sc
				execs = append(execs, x.Clone())
			}
			return true
		})
		perturbs := []exec.Perturb{exec.NoPerturb}
		for _, e := range tt.Events {
			perturbs = append(perturbs, exec.Perturb{Kind: exec.PRI, Event: e.ID})
		}
		for _, p := range perturbs {
			bindings = append(bindings, binding{tt, p, execs})
		}
	}
	c := new(exec.StaticCtx)
	v := c.NewView()
	run := func() {
		for _, b := range bindings {
			c.Rebind(b.t, b.p)
			for _, x := range b.execs {
				v.Reset(x)
				eval(v)
			}
		}
	}
	run()
	return testing.AllocsPerRun(10, run)
}

// TestWarmDerivationAllocs: with its context rebound in place, a warm
// view's power/armv7/armv8 derivation, scc/hsa causality check (the sc
// order and its scoped intersection), and every axiom of those models and
// tso allocate nothing per execution.
func TestWarmDerivationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	power := []*litmus.Test{
		litmus.New("wrc+sync+ctrlisync", [][]litmus.Op{
			{litmus.W(0)},
			{litmus.R(0), litmus.F(litmus.FSync), litmus.W(1)},
			{litmus.R(1), litmus.F(litmus.FISync), litmus.R(0)},
		}, litmus.WithDep(2, 0, 2, litmus.DepCtrl)),
		litmus.New("mp+lwsync+addr", [][]litmus.Op{
			{litmus.W(0), litmus.F(litmus.FLwSync), litmus.W(1)},
			{litmus.R(1), litmus.R(0)},
		}, litmus.WithDep(1, 0, 1, litmus.DepAddr)),
		litmus.New("rmw", [][]litmus.Op{
			{litmus.R(0), litmus.W(0)},
			{litmus.W(0)},
		}, litmus.WithRMW(0, 0)),
	}
	armv8 := append([]*litmus.Test{
		litmus.New("mp+stlr+ldar", [][]litmus.Op{
			{litmus.W(0), litmus.Wrel(1)},
			{litmus.Racq(1), litmus.R(0)},
		}),
		litmus.New("wrc+ldar+dmb", [][]litmus.Op{
			{litmus.W(0)},
			{litmus.Racq(0), litmus.W(1)},
			{litmus.R(1), litmus.F(litmus.FSync), litmus.R(0)},
		}),
	}, power[2])
	scc := []*litmus.Test{
		litmus.New("sb+scfences", [][]litmus.Op{
			{litmus.W(0), litmus.F(litmus.FSC).WithScope(litmus.ScopeWG), litmus.R(1)},
			{litmus.W(1), litmus.F(litmus.FSC).WithScope(litmus.ScopeSys), litmus.R(0)},
		}, litmus.WithGroups(0, 1)),
		litmus.New("mp+relacq", [][]litmus.Op{
			{litmus.W(0), litmus.Wrel(1).WithScope(litmus.ScopeSys)},
			{litmus.Racq(1).WithScope(litmus.ScopeWG), litmus.R(0)},
		}, litmus.WithGroups(0, 0)),
	}
	cases := []struct {
		name  string
		progs []*litmus.Test
		sc    bool
		eval  func(v *exec.View)
	}{
		{"derivePower", power, false, func(v *exec.View) { derivePower(v, variantPower) }},
		{"derivePower/armv7", power, false, func(v *exec.View) { derivePower(v, variantARMv7) }},
		{"derivePower/armv8", armv8, false, func(v *exec.View) { derivePower(v, variantARMv8) }},
		{"sccCausality", scc, true, func(v *exec.View) { sccCausalityHolds(v, false) }},
		{"sccCausality/scoped", scc, true, func(v *exec.View) { sccCausalityHolds(v, true) }},
	}
	for _, m := range []Model{TSO(), Power(), ARMv7(), ARMv8(), SCC(), HSA()} {
		progs := power
		switch {
		case m.Vocab().UsesSC:
			progs = scc
		case m.Name() == "armv8":
			progs = armv8
		}
		cases = append(cases, struct {
			name  string
			progs []*litmus.Test
			sc    bool
			eval  func(v *exec.View)
		}{m.Name() + "/axioms", progs, m.Vocab().UsesSC, func(v *exec.View) {
			for _, a := range m.Axioms() {
				a.Holds(v)
			}
		}})
	}
	for _, tc := range cases {
		if allocs := warmAllocs(tc.progs, tc.sc, tc.eval); allocs != 0 {
			t.Errorf("%s: a warm pass allocated %v times", tc.name, allocs)
		}
	}
}
