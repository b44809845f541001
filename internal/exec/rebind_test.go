package exec

import (
	"fmt"
	"testing"

	"memsynth/internal/litmus"
	"memsynth/internal/relation"
)

// rebindPrograms is a fixed program set of mixed sizes, address counts,
// fences, scopes, dependencies and rmw pairs, largest first.
func rebindPrograms() []*litmus.Test {
	return []*litmus.Test{
		litmus.New("big", [][]litmus.Op{
			{litmus.R(0), litmus.W(1), litmus.F(litmus.FSync), litmus.W(2)},
			{litmus.R(2), litmus.F(litmus.FLwSync), litmus.W(0).WithScope(litmus.ScopeWG)},
			{litmus.R(1), litmus.W(1)},
		}, litmus.WithDep(0, 0, 1, litmus.DepData), litmus.WithRMW(2, 0), litmus.WithGroups(0, 0, 1)),
		mp(),
		sb(),
		litmus.New("rmw", [][]litmus.Op{
			{litmus.R(0), litmus.W(0)},
			{litmus.W(0)},
		}, litmus.WithRMW(0, 0)),
		litmus.New("lb+datas", [][]litmus.Op{
			{litmus.R(0), litmus.W(1)},
			{litmus.R(1), litmus.W(0)},
		}, litmus.WithDep(0, 0, 1, litmus.DepData), litmus.WithDep(1, 0, 1, litmus.DepAddr)),
		litmus.New("one", [][]litmus.Op{{litmus.F(litmus.FMFence)}}),
	}
}

// rebindPerturbs returns a perturbation of every kind that applies to t.
func rebindPerturbs(t *litmus.Test) []Perturb {
	ps := []Perturb{NoPerturb}
	for _, e := range t.Events {
		ps = append(ps, Perturb{Kind: PRI, Event: e.ID})
		switch e.Kind {
		case litmus.KFence:
			ps = append(ps, Perturb{Kind: PDF, Event: e.ID, NewFence: litmus.FLwSync})
		default:
			ps = append(ps, Perturb{Kind: PDMO, Event: e.ID, NewOrder: litmus.ORelease},
				Perturb{Kind: PDS, Event: e.ID, NewScope: litmus.ScopeWG})
		}
	}
	for _, d := range t.Deps {
		ps = append(ps, Perturb{Kind: PRD, Event: d.From})
	}
	for _, p := range t.RMW {
		ps = append(ps, Perturb{Kind: PDRMW, Event: p[0]}, Perturb{Kind: PRD, Event: p[0]})
	}
	return ps
}

// TestRebindMatchesNew rebinds one context, and one view of it, through
// every (program, perturbation) pair of the fixed set in both size orders:
// each binding must equal a new context's, memoized values included, and
// the view must evaluate an execution of the new program as a new view
// does.
func TestRebindMatchesNew(t *testing.T) {
	progs := rebindPrograms()
	c := new(StaticCtx)
	v := c.NewView()
	for pass := 0; pass < 2; pass++ {
		for i := range progs {
			tt := progs[i]
			if pass == 1 {
				tt = progs[len(progs)-1-i]
			}
			for _, p := range rebindPerturbs(tt) {
				c.Rebind(tt, p)
				want := NewStaticCtx(tt, p)
				if err := sameCtx(c, want); err != nil {
					t.Fatalf("%s under %v: %v", tt.Name, p, err)
				}
				Enumerate(tt, EnumerateOptions{}, func(x *Execution) bool {
					forEachSCOrder(x, func(x *Execution) {
						v.Reset(x)
						w := want.NewView()
						w.Reset(x)
						for name, r := range map[string][2]relation.Rel{
							"rf": {v.RF(), w.RF()}, "co": {v.CO(), w.CO()}, "fr": {v.FR(), w.FR()},
							"rfe": {v.RFE(), w.RFE()}, "com": {v.Com(), w.Com()},
							"sc": {v.SCRel(), w.SCRel()},
						} {
							if !r[0].Equal(r[1]) {
								t.Fatalf("%s under %v, execution %s: %s = %v, want %v", tt.Name, p, x, name, r[0], r[1])
							}
						}
					})
					return true
				})
			}
		}
	}
}

// sameCtx compares every accessor and memoized static value of got with
// those of want.
func sameCtx(got, want *StaticCtx) error {
	if got.Test() != want.Test() || got.Perturbation() != want.Perturbation() || got.N() != want.N() {
		return fmt.Errorf("bound to %v over %d events, want %v over %d", got.Perturbation(), got.N(), want.Perturbation(), want.N())
	}
	for name, s := range map[string][2]relation.Set{
		"live": {got.Live(), want.Live()}, "reads": {got.Reads(), want.Reads()},
		"writes": {got.Writes(), want.Writes()}, "fences": {got.Fences(), want.Fences()},
	} {
		if s[0] != s[1] {
			return fmt.Errorf("%s = %v, want %v", name, s[0], s[1])
		}
	}
	if len(got.liveWrites) != len(want.liveWrites) {
		return fmt.Errorf("live writes over %d addresses, want %d", len(got.liveWrites), len(want.liveWrites))
	}
	for a := range want.liveWrites {
		if got.LiveWrites(a) != want.LiveWrites(a) {
			return fmt.Errorf("LiveWrites(%d) = %v, want %v", a, got.LiveWrites(a), want.LiveWrites(a))
		}
	}
	rels := map[string][2]relation.Rel{
		"po": {got.PO(), want.PO()}, "po_loc": {got.POLoc(), want.POLoc()},
		"sameAddr": {got.SameAddr(), want.SameAddr()}, "ext": {got.Ext(), want.Ext()},
		"rmw": {got.RMW(), want.RMW()}, "depAll": {got.DepAll(), want.DepAll()},
		"addr":         {got.Dep(litmus.DepAddr), want.Dep(litmus.DepAddr)},
		"data":         {got.Dep(litmus.DepData), want.Dep(litmus.DepData)},
		"ctrl":         {got.Dep(litmus.DepCtrl), want.Dep(litmus.DepCtrl)},
		"scope-compat": {got.ScopeCompatible(), want.ScopeCompatible()},
		"fence(sync)":  {got.FenceRel(litmus.FSync), want.FenceRel(litmus.FSync)},
		"fence(lwsync, sync)": {
			got.FenceRel(litmus.FLwSync, litmus.FSync), want.FenceRel(litmus.FSync, litmus.FLwSync),
		},
		"fence(mfence)": {got.FenceRel(litmus.FMFence), want.FenceRel(litmus.FMFence)},
	}
	for name, r := range rels {
		if !r[0].Equal(r[1]) {
			return fmt.Errorf("%s = %v over %d atoms, want %v over %d", name, r[0], r[0].N(), r[1], r[1].N())
		}
	}
	return nil
}

// TestStaticMemoRefillsStaleSlot: a slot built under one binding is served
// until the next Rebind, which rebuilds it on first use from the previous
// value.
func TestStaticMemoRefillsStaleSlot(t *testing.T) {
	progs := rebindPrograms()
	c := NewStaticCtx(progs[1], NoPerturb)
	builds := 0
	var prevs []any
	build := func(prev any) any {
		builds++
		prevs = append(prevs, prev)
		return builds
	}
	if got := c.StaticMemo("k", build); got != 1 {
		t.Fatalf("first lookup = %v, want 1", got)
	}
	if got := c.StaticMemo("k", build); got != 1 || builds != 1 {
		t.Fatalf("second lookup = %v after %d builds, want the cached 1", got, builds)
	}
	c.Rebind(progs[2], NoPerturb)
	if got := c.StaticMemo("k", build); got != 2 {
		t.Fatalf("lookup after Rebind = %v, want a rebuilt 2", got)
	}
	if prevs[0] != nil || prevs[1] != 1 {
		t.Errorf("builds received %v, want [nil 1]", prevs)
	}
}

// TestRebindAllocs: once a context and its view have been bound to a
// program, rebinding them to any program no larger allocates nothing, with
// the memoized fence and scope relations refilled in place and the
// view's dynamic relations (the sc order included) rebuilt.
func TestRebindAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	progs := rebindPrograms()
	type binding struct {
		t *litmus.Test
		p Perturb
		x *Execution
	}
	var bindings []binding
	for _, tt := range progs {
		var x *Execution
		Enumerate(tt, EnumerateOptions{}, func(e *Execution) bool { x = e.Clone(); return false })
		if orders := SCOrders(tt); orders != nil {
			x.SC = orders[0]
		}
		for _, p := range rebindPerturbs(tt) {
			bindings = append(bindings, binding{tt, p, x})
		}
	}
	c := new(StaticCtx)
	v := c.NewView()
	run := func() {
		for _, b := range bindings {
			c.Rebind(b.t, b.p)
			c.FenceRel(litmus.FSync)
			c.FenceRel(litmus.FLwSync, litmus.FSync)
			c.ScopeCompatible()
			v.Reset(b.x)
			v.Com()
			v.SCRel()
		}
	}
	run() // the largest program comes first: this pass sizes every buffer
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("warm rebinds allocated %v times per pass over %d bindings", allocs, len(bindings))
	}
}
