package memmodel

import (
	"fmt"
	"testing"

	"memsynth/internal/exec"
	. "memsynth/internal/litmus"
)

// cond is a predicate over concrete execution outcomes.
type cond func(x *exec.Execution) bool

// readVals matches executions where each read event (by ID) observes the
// given value.
func readVals(vals map[int]int) cond {
	return func(x *exec.Execution) bool {
		for id, v := range vals {
			if x.ReadValue(id) != v {
				return false
			}
		}
		return true
	}
}

// allowed reports whether any execution of t that matches c is valid under
// m for some sc order.
func allowed(m Model, t *Test, c cond) bool {
	found := false
	valid := ValidUnderSomeSC(m, t)
	exec.Enumerate(t, exec.EnumerateOptions{}, func(x *exec.Execution) bool {
		if c(x) && valid(x) {
			found = true
			return false
		}
		return true
	})
	return found
}

func expect(t *testing.T, m Model, lt *Test, c cond, want bool) {
	t.Helper()
	if got := allowed(m, lt, c); got != want {
		verdict := map[bool]string{true: "allowed", false: "forbidden"}
		t.Errorf("%s under %s: got %s, want %s", lt.Name, m.Name(), verdict[got], verdict[!got])
	}
}

// --- classic tests -------------------------------------------------------

// mpPlain: T0: St x; St y || T1: Ld y; Ld x. Events 0,1,2,3.
func mpPlain() *Test {
	return New("MP", [][]Op{{W(0), W(1)}, {R(1), R(0)}})
}

// mpRelAcq is paper Fig. 1 (release store of flag, acquire load of flag).
func mpRelAcq() *Test {
	return New("MP+rel+acq", [][]Op{{W(0), Wrel(1)}, {Racq(1), R(0)}})
}

// mpForbidden is the canonical forbidden MP outcome: r(flag)=1, r(data)=0.
var mpForbidden = readVals(map[int]int{2: 1, 3: 0})

// sbPlain: store buffering. Events: 0:Wx 1:Ry 2:Wy 3:Rx.
func sbPlain() *Test {
	return New("SB", [][]Op{{W(0), R(1)}, {W(1), R(0)}})
}

var sbForbidden = readVals(map[int]int{1: 0, 3: 0})

// sbMFences: SB with mfence between store and load on both threads.
// Events: 0:Wx 1:F 2:Ry 3:Wy 4:F 5:Rx.
func sbMFences() *Test {
	return New("SB+mfences", [][]Op{
		{W(0), F(FMFence), R(1)},
		{W(1), F(FMFence), R(0)},
	})
}

var sbFencedForbidden = readVals(map[int]int{2: 0, 5: 0})

// lbPlain: load buffering. Events: 0:Rx 1:Wy 2:Ry 3:Wx.
func lbPlain() *Test {
	return New("LB", [][]Op{{R(0), W(1)}, {R(1), W(0)}})
}

var lbForbidden = readVals(map[int]int{0: 1, 2: 1})

// iriw: independent reads of independent writes.
// Events: 0:Wx 1:Wy 2:Rx 3:Ry 4:Ry 5:Rx.
func iriw() *Test {
	return New("IRIW", [][]Op{
		{W(0)},
		{W(1)},
		{R(0), R(1)},
		{R(1), R(0)},
	})
}

var iriwForbidden = readVals(map[int]int{2: 1, 3: 0, 4: 1, 5: 0})

// coRR: T0: Wx || T1: Rx; Rx — new-then-old is a coherence violation.
// Events: 0:Wx 1:Rx 2:Rx.
func coRR() *Test {
	return New("CoRR", [][]Op{{W(0)}, {R(0), R(0)}})
}

var coRRForbidden = readVals(map[int]int{1: 1, 2: 0})

// coWW: two same-address stores in one thread; co must follow po.
// Events: 0:Wx 1:Wx 2:Rx (observer pins co).
func coWW() *Test {
	return New("CoWW", [][]Op{{W(0), W(0)}})
}

// coWWForbidden: final x = value of the first store (co contradicts po).
func coWWForbidden(x *exec.Execution) bool {
	return x.CO[0][0] == 1 && x.CO[0][1] == 0
}

// coRW1: a read observing a po-later write of its own thread.
// Events: 0:Rx 1:Wx.
func coRW1() *Test {
	return New("CoRW1", [][]Op{{R(0), W(0)}})
}

var coRW1Forbidden = readVals(map[int]int{0: 1})

// coWR: T0: Wx; Rx — reading the initial value past one's own store.
// Events: 0:Wx 1:Rx.
func coWR() *Test {
	return New("CoWR", [][]Op{{W(0), R(0)}})
}

// coWRForbidden: the read sees initial 0 despite the program-earlier store.
var coWRForbidden = readVals(map[int]int{1: 0})

func TestSCPerLocationAcrossAllModels(t *testing.T) {
	// Coherence violations must be forbidden by every implemented model.
	for _, m := range All() {
		expect(t, m, coRR(), coRRForbidden, false)
		expect(t, m, coWW(), coWWForbidden, false)
		expect(t, m, coRW1(), coRW1Forbidden, false)
		expect(t, m, coWR(), coWRForbidden, false)
	}
}

func TestSCModel(t *testing.T) {
	sc := SC()
	expect(t, sc, sbPlain(), sbForbidden, false)
	expect(t, sc, mpPlain(), mpForbidden, false)
	expect(t, sc, lbPlain(), lbForbidden, false)
	expect(t, sc, iriw(), iriwForbidden, false)
	// Sanity: the non-exotic outcomes are allowed.
	expect(t, sc, sbPlain(), readVals(map[int]int{1: 1, 3: 1}), true)
	expect(t, sc, mpPlain(), readVals(map[int]int{2: 1, 3: 1}), true)
	expect(t, sc, mpPlain(), readVals(map[int]int{2: 0, 3: 0}), true)
}

func TestTSOModel(t *testing.T) {
	tso := TSO()
	// SB relaxed outcome observable on TSO (store buffers)...
	expect(t, tso, sbPlain(), sbForbidden, true)
	// ...but forbidden with mfences (Owens suite's SB+mfences).
	expect(t, tso, sbMFences(), sbFencedForbidden, false)
	// MP, LB, IRIW forbidden on TSO even unfenced.
	expect(t, tso, mpPlain(), mpForbidden, false)
	expect(t, tso, lbPlain(), lbForbidden, false)
	expect(t, tso, iriw(), iriwForbidden, false)
}

func TestTSORMWAtomicity(t *testing.T) {
	tso := TSO()
	// T0: RMW(x) || T1: Wx. Events: 0:Rx 1:Wx (paired) 2:Wx.
	rmw := New("RMW+W", [][]Op{
		{R(0), W(0)},
		{W(0)},
	}, WithRMW(0, 0))
	// Read observes initial 0, but the external write intervenes between
	// read and paired write in co: r fre Wext, Wext coe Wpair.
	violating := func(x *exec.Execution) bool {
		return x.ReadValue(0) == 0 && x.CO[0][0] == 2 && x.CO[0][1] == 1
	}
	expect(t, tso, rmw, violating, false)
	// With the intervening write co-after the pair the execution is fine.
	okExec := func(x *exec.Execution) bool {
		return x.ReadValue(0) == 0 && x.CO[0][0] == 1 && x.CO[0][1] == 2
	}
	expect(t, tso, rmw, okExec, true)

	// Without the RMW pairing the interleaving is allowed.
	noPair := New("R+W+W", [][]Op{
		{R(0), W(0)},
		{W(0)},
	})
	expect(t, tso, noPair, violating, true)
}

func TestTSOnStyleTests(t *testing.T) {
	tso := TSO()
	// n5 / coLB (paper Fig. 10): T0: Wx1; Rx || T1: Wx2; Rx — each thread
	// must not read the other thread's value if co contradicts.
	// Events: 0:Wx 1:Rx 2:Wx 3:Rx.
	n5 := New("n5", [][]Op{
		{W(0), R(0)},
		{W(0), R(0)},
	})
	// Forbidden: r1 = other's write (2) yet co orders own write later,
	// i.e. r(e1)=val(e2's write)=? Use paper's outcome: r1=1,r2=2 with
	// co x = [e2's, e0's] meaning final x = e0's value... Encode via
	// explicit structure: e1 reads e2's write, e3 reads e0's write.
	forbidden := func(x *exec.Execution) bool {
		return x.RF[1] == 2 && x.RF[3] == 0
	}
	expect(t, tso, n5, forbidden, false)

	// S: T0: Wx=2; Wy=1 || T1: Ry; Wx=1. Forbidden: r(y)=1 and co puts
	// T1's Wx before T0's Wx (final x = 2... the S shape uses fr).
	// Events: 0:Wx 1:Wy 2:Ry 3:Wx.
	s := New("S", [][]Op{
		{W(0), W(1)},
		{R(1), W(0)},
	})
	sForbidden := func(x *exec.Execution) bool {
		// r(y) observes Wy, and T1's Wx is co-before T0's Wx.
		return x.RF[2] == 1 && x.CO[0][0] == 3 && x.CO[0][1] == 0
	}
	expect(t, tso, s, sForbidden, false)

	// R: T0: Wx; Wy || T1: Wy; Rx. Without fences the outcome
	// (co y: T0 then T1... ) r(x)=0 with T0's Wy co-before T1's Wy is
	// observable on TSO (requires W->R ordering to forbid).
	r := New("R", [][]Op{
		{W(0), W(1)},
		{W(1), R(0)},
	})
	rRelaxed := func(x *exec.Execution) bool {
		return x.ReadValue(3) == 0 && x.CO[1][0] == 1 && x.CO[1][1] == 2
	}
	expect(t, tso, r, rRelaxed, true)
	// R+mfence (fence on T1 between Wy and Rx): forbidden.
	rf := New("R+mfence", [][]Op{
		{W(0), W(1)},
		{W(1), F(FMFence), R(0)},
	})
	rfForbidden := func(x *exec.Execution) bool {
		return x.ReadValue(4) == 0 && x.CO[1][0] == 1 && x.CO[1][1] == 2
	}
	expect(t, tso, rf, rfForbidden, false)

	// 2+2W: T0: Wx1; Wy2 || T1: Wy1; Wx2 — both co orders against po is
	// forbidden under TSO (W->W preserved).
	w22 := New("2+2W", [][]Op{
		{W(0), W(1)},
		{W(1), W(0)},
	})
	w22Forbidden := func(x *exec.Execution) bool {
		// co x: T1's write then T0's; co y: T0's then T1's... cycle.
		return x.CO[0][0] == 3 && x.CO[0][1] == 0 && x.CO[1][0] == 1 && x.CO[1][1] == 2
	}
	expect(t, tso, w22, w22Forbidden, false)

	// WRC: write-to-read causality. T0: Wx || T1: Rx; Wy || T2: Ry; Rx.
	// Events: 0:Wx 1:Rx 2:Wy 3:Ry 4:Rx.
	wrc := New("WRC", [][]Op{
		{W(0)},
		{R(0), W(1)},
		{R(1), R(0)},
	})
	wrcForbidden := readVals(map[int]int{1: 1, 3: 1, 4: 0})
	expect(t, tso, wrc, wrcForbidden, false)
}

func TestPowerModel(t *testing.T) {
	p := Power()
	// Unfenced relaxed behaviors are allowed on Power.
	expect(t, p, mpPlain(), mpForbidden, true)
	expect(t, p, sbPlain(), sbForbidden, true)
	expect(t, p, lbPlain(), lbForbidden, true)
	expect(t, p, iriw(), iriwForbidden, true)

	// MP+lwsync+addr: lwsync on the writer, address dependency on the
	// reader side — forbidden (the classic Power MP fix).
	mpFixed := New("MP+lwsync+addr", [][]Op{
		{W(0), F(FLwSync), W(1)},
		{R(1), R(0)},
	}, WithDep(1, 0, 1, DepAddr))
	expect(t, p, mpFixed, readVals(map[int]int{3: 1, 4: 0}), false)

	// MP+lwsync without the reader-side dependency: still observable.
	mpHalf := New("MP+lwsync", [][]Op{
		{W(0), F(FLwSync), W(1)},
		{R(1), R(0)},
	})
	expect(t, p, mpHalf, readVals(map[int]int{3: 1, 4: 0}), true)

	// LB+datas: data dependencies on both threads — forbidden
	// (no_thin_air).
	lbDatas := New("LB+datas", [][]Op{
		{R(0), W(1)},
		{R(1), W(0)},
	}, WithDep(0, 0, 1, DepData), WithDep(1, 0, 1, DepData))
	expect(t, p, lbDatas, lbForbidden, false)

	// SB+syncs: forbidden via the propagation/observation machinery.
	sbSyncs := New("SB+syncs", [][]Op{
		{W(0), F(FSync), R(1)},
		{W(1), F(FSync), R(0)},
	})
	expect(t, p, sbSyncs, readVals(map[int]int{2: 0, 5: 0}), false)

	// SB+lwsyncs: still observable (lwsync does not order W->R).
	sbLw := New("SB+lwsyncs", [][]Op{
		{W(0), F(FLwSync), R(1)},
		{W(1), F(FLwSync), R(0)},
	})
	expect(t, p, sbLw, readVals(map[int]int{2: 0, 5: 0}), true)

	// IRIW+syncs: forbidden (A-cumulativity of sync).
	iriwSyncs := New("IRIW+syncs", [][]Op{
		{W(0)},
		{W(1)},
		{R(0), F(FSync), R(1)},
		{R(1), F(FSync), R(0)},
	})
	expect(t, p, iriwSyncs, readVals(map[int]int{2: 1, 4: 0, 5: 1, 7: 0}), false)

	// IRIW+lwsyncs: allowed (famously not fixed by lwsync).
	iriwLw := New("IRIW+lwsyncs", [][]Op{
		{W(0)},
		{W(1)},
		{R(0), F(FLwSync), R(1)},
		{R(1), F(FLwSync), R(0)},
	})
	expect(t, p, iriwLw, readVals(map[int]int{2: 1, 4: 0, 5: 1, 7: 0}), true)

	// MP+sync+ctrl: control dependency alone does not order R->R:
	// still observable. With ctrl+isync it is forbidden.
	mpCtrl := New("MP+sync+ctrl", [][]Op{
		{W(0), F(FSync), W(1)},
		{R(1), R(0)},
	}, WithDep(1, 0, 1, DepCtrl))
	expect(t, p, mpCtrl, readVals(map[int]int{3: 1, 4: 0}), true)

	mpCtrlIsync := New("MP+sync+ctrlisync", [][]Op{
		{W(0), F(FSync), W(1)},
		{R(1), F(FISync), R(0)},
	}, WithDep(1, 0, 1, DepCtrl))
	expect(t, p, mpCtrlIsync, readVals(map[int]int{3: 1, 5: 0}), false)

	// 2+2W plain: allowed on Power.
	w22 := New("2+2W", [][]Op{
		{W(0), W(1)},
		{W(1), W(0)},
	})
	w22Forbidden := func(x *exec.Execution) bool {
		return x.CO[0][0] == 3 && x.CO[0][1] == 0 && x.CO[1][0] == 1 && x.CO[1][1] == 2
	}
	expect(t, p, w22, w22Forbidden, true)
	// 2+2W+lwsyncs: forbidden (prop covers W->W through lwsync).
	w22Lw := New("2+2W+lwsyncs", [][]Op{
		{W(0), F(FLwSync), W(1)},
		{W(1), F(FLwSync), W(0)},
	})
	w22LwForbidden := func(x *exec.Execution) bool {
		return x.CO[0][0] == 5 && x.CO[0][1] == 0 && x.CO[1][0] == 2 && x.CO[1][1] == 3
	}
	expect(t, p, w22Lw, w22LwForbidden, false)
}

func TestARMv7Model(t *testing.T) {
	arm := ARMv7()
	expect(t, arm, mpPlain(), mpForbidden, true)
	expect(t, arm, sbPlain(), sbForbidden, true)

	// MP+dmb+addr forbidden.
	mpFixed := New("MP+dmb+addr", [][]Op{
		{W(0), F(FSync), W(1)},
		{R(1), R(0)},
	}, WithDep(1, 0, 1, DepAddr))
	expect(t, arm, mpFixed, readVals(map[int]int{3: 1, 4: 0}), false)

	// SB+dmbs forbidden.
	sbDmb := New("SB+dmbs", [][]Op{
		{W(0), F(FSync), R(1)},
		{W(1), F(FSync), R(0)},
	})
	expect(t, arm, sbDmb, readVals(map[int]int{2: 0, 5: 0}), false)
}

func TestSCCModel(t *testing.T) {
	scc := SCC()
	// Plain MP observable; rel/acq MP forbidden (paper Fig. 1).
	expect(t, scc, mpPlain(), mpForbidden, true)
	expect(t, scc, mpRelAcq(), mpForbidden, false)

	// Fig. 2 variant (extra synchronization) also forbids it.
	mpOver := New("MP+2rel+2acq", [][]Op{
		{Wrel(0), Wrel(1)},
		{Racq(1), Racq(0)},
	})
	expect(t, scc, mpOver, mpForbidden, false)

	// Release without matching acquire: observable.
	mpRelOnly := New("MP+rel", [][]Op{
		{W(0), Wrel(1)},
		{R(1), R(0)},
	})
	expect(t, scc, mpRelOnly, mpForbidden, true)

	// SB with SC fences forbidden (paper Fig. 18a); with acq-rel fences
	// observable.
	sbSC := New("SB+scfences", [][]Op{
		{W(0), F(FSC), R(1)},
		{W(1), F(FSC), R(0)},
	})
	expect(t, scc, sbSC, readVals(map[int]int{2: 0, 5: 0}), false)
	sbAR := New("SB+arfences", [][]Op{
		{W(0), F(FAcqRel), R(1)},
		{W(1), F(FAcqRel), R(0)},
	})
	expect(t, scc, sbAR, readVals(map[int]int{2: 0, 5: 0}), true)

	// LB with dependencies forbidden (no thin air); without, observable.
	lbDeps := New("LB+deps", [][]Op{
		{R(0), W(1)},
		{R(1), W(0)},
	}, WithDep(0, 0, 1, DepData), WithDep(1, 0, 1, DepData))
	expect(t, scc, lbDeps, lbForbidden, false)
	expect(t, scc, lbPlain(), lbForbidden, true)

	// MP through acq-rel fences: fence on each side synchronizes.
	mpFences := New("MP+arfences", [][]Op{
		{W(0), F(FAcqRel), W(1)},
		{R(1), F(FAcqRel), R(0)},
	})
	expect(t, scc, mpFences, readVals(map[int]int{3: 1, 5: 0}), false)
}

// TestVocabSCOrders: a vocabulary that consults an sc order quantifies
// over every order of two or more FSC fences; otherwise, or with fewer
// fences, over the one shared nil order, which costs no allocation.
func TestVocabSCOrders(t *testing.T) {
	sb := New("SB+scfences", [][]Op{{W(0), F(FSC), R(1)}, {W(1), F(FSC), R(0)}})
	one := New("one-fence", [][]Op{{W(0), F(FSC)}, {R(0)}})
	for _, tc := range []struct {
		m    Model
		t    *Test
		want string
	}{
		{SCC(), sb, "[[1 4] [4 1]]"},
		{SCC(), one, "[[]]"},
		{TSO(), sb, "[[]]"},
	} {
		orders := tc.m.Vocab().SCOrders(tc.t)
		if got := fmt.Sprint(orders); got != tc.want {
			t.Errorf("%s on %s: SCOrders = %s, want %s", tc.m.Name(), tc.t.Name, got, tc.want)
		}
		if tc.want == "[[]]" && orders[0] != nil {
			t.Errorf("%s on %s: SCOrders = %v, want the nil order", tc.m.Name(), tc.t.Name, orders)
		}
	}
	if raceEnabled {
		return
	}
	vocab := TSO().Vocab()
	if allocs := testing.AllocsPerRun(20, func() { vocab.SCOrders(sb) }); allocs != 0 {
		t.Errorf("SCOrders without an sc order allocates %.1f times", allocs)
	}
}

func TestC11Model(t *testing.T) {
	c := C11()
	expect(t, c, mpPlain(), mpForbidden, true)
	expect(t, c, mpRelAcq(), mpForbidden, false)

	// SB with seq_cst accesses forbidden; with rel/acq observable.
	sbSC := New("SB+sc", [][]Op{
		{Wsc(0), Rsc(1)},
		{Wsc(1), Rsc(0)},
	})
	expect(t, c, sbSC, sbForbidden, false)
	sbRA := New("SB+ra", [][]Op{
		{Wrel(0), Racq(1)},
		{Wrel(1), Racq(0)},
	})
	expect(t, c, sbRA, sbForbidden, true)

	// SC fences restore SB ordering for relaxed accesses.
	sbF := New("SB+scfences", [][]Op{
		{W(0), F(FSC), R(1)},
		{W(1), F(FSC), R(0)},
	})
	expect(t, c, sbF, readVals(map[int]int{2: 0, 5: 0}), false)

	// Fence-based MP: release fence before the flag store, acquire fence
	// after the flag load.
	mpF := New("MP+relfence+acqfence", [][]Op{
		{W(0), F(FRel), W(1)},
		{R(1), F(FAcq), R(0)},
	})
	expect(t, c, mpF, readVals(map[int]int{3: 1, 5: 0}), false)

	// LB relaxed: forbidden by the conservative no-thin-air axiom (RC11).
	expect(t, c, lbPlain(), lbForbidden, false)

	// IRIW with seq_cst reads and relaxed writes... IRIW-sc-all forbidden.
	iriwSC := New("IRIW+sc", [][]Op{
		{Wsc(0)},
		{Wsc(1)},
		{Rsc(0), Rsc(1)},
		{Rsc(1), Rsc(0)},
	})
	expect(t, c, iriwSC, iriwForbidden, false)
	// IRIW with acquire reads and release writes: allowed in C11.
	iriwRA := New("IRIW+ra", [][]Op{
		{Wrel(0)},
		{Wrel(1)},
		{Racq(0), Racq(1)},
		{Racq(1), Racq(0)},
	})
	expect(t, c, iriwRA, iriwForbidden, true)
}

func TestHSAModel(t *testing.T) {
	h := HSA()
	wg, sys := ScopeWG, ScopeSys

	// Cross-group MP with system-scope synchronization: forbidden.
	mpSys := New("MP+rel+acq@sys", [][]Op{
		{W(0), Wrel(1).WithScope(sys)},
		{Racq(1).WithScope(sys), R(0)},
	}, WithGroups(0, 1))
	expect(t, h, mpSys, mpForbidden, false)

	// Cross-group MP with workgroup-scope synchronization: the scopes do
	// not cover each other's thread — observable (insufficient scope).
	mpWG := New("MP+rel+acq@wg-crossgroup", [][]Op{
		{W(0), Wrel(1).WithScope(wg)},
		{Racq(1).WithScope(wg), R(0)},
	}, WithGroups(0, 1))
	expect(t, h, mpWG, mpForbidden, true)

	// Same-group MP with workgroup scope: forbidden (scope suffices).
	mpWGSame := New("MP+rel+acq@wg-samegroup", [][]Op{
		{W(0), Wrel(1).WithScope(wg)},
		{Racq(1).WithScope(wg), R(0)},
	}, WithGroups(0, 0))
	expect(t, h, mpWGSame, mpForbidden, false)

	// Mixed scopes: releaser at system scope, acquirer at workgroup scope
	// across groups — the acquirer's scope does not cover the releaser.
	mpMixed := New("MP+rel@sys+acq@wg", [][]Op{
		{W(0), Wrel(1).WithScope(sys)},
		{Racq(1).WithScope(wg), R(0)},
	}, WithGroups(0, 1))
	expect(t, h, mpMixed, mpForbidden, true)
}

func TestC11OrderLattice(t *testing.T) {
	// Paper Table 1: demotions must follow the C/C++ strength order.
	probe := func(op Op) Event {
		lt := New("p", [][]Op{{op}})
		return lt.Events[0]
	}
	cases := []struct {
		op   Op
		want []Order
	}{
		{Rsc(0), []Order{OAcquire}},
		{Racq(0), []Order{OPlain}},
		{R(0), nil},
		{Wsc(0), []Order{ORelease}},
		{Wrel(0), []Order{OPlain}},
		{W(0), nil},
	}
	for _, c := range cases {
		got := c11DemoteOrder(probe(c.op))
		if len(got) != len(c.want) {
			t.Errorf("c11DemoteOrder(%v) = %v, want %v", c.op, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("c11DemoteOrder(%v) = %v, want %v", c.op, got, c.want)
			}
		}
	}
	if got := c11DemoteFence(probe(F(FSC))); len(got) != 1 || got[0] != FAcqRel {
		t.Errorf("FSC demotion = %v", got)
	}
	if got := c11DemoteFence(probe(F(FAcqRel))); len(got) != 2 {
		t.Errorf("FAcqRel demotion = %v", got)
	}
}

func TestApplications(t *testing.T) {
	tso := TSO()
	sb := sbMFences()
	apps := Applications(tso, sb)
	// TSO on SB+mfences: RI per event (6), no DMO/DF/RD/DS, no RMW pairs.
	if len(apps) != 6 {
		t.Fatalf("Applications = %d, want 6 (RI only): %v", len(apps), apps)
	}
	for _, a := range apps {
		if a.Kind != exec.PRI {
			t.Errorf("unexpected application %v", a)
		}
	}

	scc := SCC()
	mp := mpRelAcq()
	apps = Applications(scc, mp)
	// 4 RI + DMO on the release store and acquire load.
	var ri, dmo int
	for _, a := range apps {
		switch a.Kind {
		case exec.PRI:
			ri++
		case exec.PDMO:
			dmo++
		}
	}
	if ri != 4 || dmo != 2 || len(apps) != 6 {
		t.Errorf("SCC MP applications: ri=%d dmo=%d total=%d", ri, dmo, len(apps))
	}

	// RMW pair yields DRMW and RD (implicit dep).
	rmwTest := New("rmw", [][]Op{{R(0), W(0)}}, WithRMW(0, 0))
	apps = Applications(tso, rmwTest)
	var drmw int
	for _, a := range apps {
		if a.Kind == exec.PDRMW {
			drmw++
		}
	}
	if drmw != 1 {
		t.Errorf("DRMW applications = %d, want 1", drmw)
	}
}

func TestRelaxationTagsTable2(t *testing.T) {
	// Paper Table 2 rows for the implemented models.
	want := map[string][]string{
		"sc":    {"RI", "DRMW"},
		"tso":   {"RI", "DRMW"},
		"power": {"RI", "DRMW", "DF", "RD"},
		"armv7": {"RI", "DRMW", "RD"},
		"armv8": {"RI", "DRMW", "DMO", "RD"},
		"scc":   {"RI", "DRMW", "DF", "DMO", "RD"},
		"c11":   {"RI", "DRMW", "DF", "DMO"},
		"hsa":   {"RI", "DRMW", "DF", "DMO", "RD", "DS"},
	}
	for name, tags := range want {
		m, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		got := RelaxationTags(m)
		if len(got) != len(tags) {
			t.Errorf("%s tags = %v, want %v", name, got, tags)
			continue
		}
		for i := range got {
			if got[i] != tags[i] {
				t.Errorf("%s tags = %v, want %v", name, got, tags)
				break
			}
		}
	}
}

func TestByNameAndAll(t *testing.T) {
	if len(All()) != 8 {
		t.Errorf("All() = %d models", len(All()))
	}
	if _, err := ByName("tso"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("zz"); err == nil {
		t.Error("ByName(zz) should fail")
	}
	if _, err := AxiomByName(TSO(), "causality"); err != nil {
		t.Error(err)
	}
	if _, err := AxiomByName(TSO(), "nope"); err == nil {
		t.Error("AxiomByName(nope) should fail")
	}
}

// TestRMWAtomicityMatchesFormula pins rmw_atomicity's row-wise check to
// its formula, empty(fr;co ∩ rmw) and empty(fre;coe ∩ rmw), on every
// execution of rmw programs under every removal and decomposition.
func TestRMWAtomicityMatchesFormula(t *testing.T) {
	progs := []*Test{
		New("rmw+w", [][]Op{
			{R(0), W(0)},
			{W(0)},
		}, WithRMW(0, 0)),
		New("rmw+rmw+w", [][]Op{
			{R(0), W(0), W(0)},
			{R(0), W(0)},
			{W(0), R(1)},
		}, WithRMW(0, 0), WithRMW(1, 0)),
	}
	checks := 0
	for _, external := range []bool{false, true} {
		a := rmwAtomicity(external)
		for _, tt := range progs {
			perturbs := []exec.Perturb{exec.NoPerturb}
			for _, e := range tt.Events {
				perturbs = append(perturbs, exec.Perturb{Kind: exec.PRI, Event: e.ID}, exec.Perturb{Kind: exec.PDRMW, Event: e.ID})
			}
			exec.Enumerate(tt, exec.EnumerateOptions{}, func(x *exec.Execution) bool {
				for _, p := range perturbs {
					v := exec.NewView(x, p)
					want := v.FR().Join(v.CO()).Intersect(v.RMW()).IsEmpty()
					if external {
						want = v.FRE().Join(v.COE()).Intersect(v.RMW()).IsEmpty()
					}
					if got := a.Holds(v); got != want {
						t.Fatalf("%s under %v (external %v), execution %s: Holds = %v, formula = %v", tt.Name, p, external, x, got, want)
					}
					checks++
				}
				return true
			})
		}
	}
	t.Logf("%d checks", checks)
}
