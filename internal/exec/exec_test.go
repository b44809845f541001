package exec

import (
	"fmt"
	"testing"

	"memsynth/internal/litmus"
	"memsynth/internal/relation"
)

// mp is the message-passing test of paper Fig. 1:
//
//	T0: St x; St.rel y   ||   T1: Ld.acq y; Ld x
func mp() *litmus.Test {
	return litmus.New("MP", [][]litmus.Op{
		{litmus.W(0), litmus.Wrel(1)},
		{litmus.Racq(1), litmus.R(0)},
	})
}

// sb is store buffering with SC fences (paper Fig. 18a).
func sb() *litmus.Test {
	return litmus.New("SB+scfences", [][]litmus.Op{
		{litmus.W(0), litmus.F(litmus.FSC), litmus.R(1)},
		{litmus.W(1), litmus.F(litmus.FSC), litmus.R(0)},
	})
}

// forEachSCOrder calls visit on x under each of SCOrders(x.Test), or once
// under a nil order when there are fewer than two sc fences.
func forEachSCOrder(x *Execution, visit func(*Execution)) {
	orders := SCOrders(x.Test)
	if orders == nil {
		orders = [][]int{nil}
	}
	for _, sc := range orders {
		x.SC = sc
		visit(x)
	}
}

func TestEnumerateCountMP(t *testing.T) {
	// MP: two reads, each with one same-address write: choices 2*2 = 4.
	// One write per address: 1 coherence order each.
	m := mp()
	want := 4
	if got := CountExecutions(m); got != want {
		t.Errorf("CountExecutions = %d, want %d", got, want)
	}
	visited := 0
	Enumerate(m, EnumerateOptions{}, func(x *Execution) bool {
		visited++
		return true
	})
	if visited != want {
		t.Errorf("Enumerate visited %d, want %d", visited, want)
	}
}

func TestEnumerateCountWithCO(t *testing.T) {
	// Two writes to x on different threads plus one read: rf has 3
	// choices, co has 2 orders: 6 executions.
	m := litmus.New("2W1R", [][]litmus.Op{
		{litmus.W(0)},
		{litmus.W(0)},
		{litmus.R(0)},
	})
	if got := CountExecutions(m); got != 6 {
		t.Errorf("CountExecutions = %d, want 6", got)
	}
	n := Enumerate(m, EnumerateOptions{}, func(*Execution) bool { return true })
	if n != 6 {
		t.Errorf("Enumerate = %d, want 6", n)
	}
}

// TestSCOrders: SCOrders lists every total order of the FSC fences, and
// nothing for fewer than two.
func TestSCOrders(t *testing.T) {
	if got := fmt.Sprint(SCOrders(sb())); got != "[[1 4] [4 1]]" {
		t.Errorf("SCOrders = %s, want [[1 4] [4 1]]", got)
	}
	one := litmus.New("one-fence", [][]litmus.Op{{litmus.W(0), litmus.F(litmus.FSC)}, {litmus.R(0)}})
	if got := SCOrders(one); got != nil {
		t.Errorf("SCOrders(one fence) = %v, want nil", got)
	}
	if got := SCOrders(mp()); got != nil {
		t.Errorf("SCOrders(no fences) = %v, want nil", got)
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	m := mp()
	visited := 0
	Enumerate(m, EnumerateOptions{}, func(*Execution) bool {
		visited++
		return false
	})
	if visited != 1 {
		t.Errorf("early stop visited %d, want 1", visited)
	}
}

func TestValues(t *testing.T) {
	m := litmus.New("coww", [][]litmus.Op{
		{litmus.W(0), litmus.W(0)},
		{litmus.R(0)},
	})
	x := &Execution{
		Test: m,
		RF:   []int{-1, -1, 1},
		CO:   [][]int{{0, 1}},
	}
	if got := x.WriteValue(0); got != 1 {
		t.Errorf("WriteValue(0) = %d", got)
	}
	if got := x.WriteValue(1); got != 2 {
		t.Errorf("WriteValue(1) = %d", got)
	}
	if got := x.ReadValue(2); got != 2 {
		t.Errorf("ReadValue(2) = %d", got)
	}
	if got := x.FinalValue(0); got != 2 {
		t.Errorf("FinalValue = %d", got)
	}
	x.RF[2] = -1
	if got := x.ReadValue(2); got != 0 {
		t.Errorf("initial ReadValue = %d", got)
	}
	if got := x.OutcomeString(); got != "r2=0 [x]=2" {
		t.Errorf("OutcomeString = %q", got)
	}
}

// TestWellFormed accepts every execution the enumerator visits, under each
// sc order, and rejects each way a witness rebuilt from untrusted bytes
// can break: a short rf, a read from a write to another address or from
// a non-write, a co that drops, repeats or adds a write, and an sc that
// is not an order of the sc fences.
func TestWellFormed(t *testing.T) {
	for _, m := range []*litmus.Test{mp(), sb()} {
		Enumerate(m, EnumerateOptions{}, func(x *Execution) bool {
			forEachSCOrder(x, func(x *Execution) {
				if err := x.WellFormed(); err != nil {
					t.Errorf("%s: enumerated execution rejected: %v", x, err)
				}
			})
			return true
		})
	}
	// sb's events: 0 St x, 1 F sc, 2 Ld y, 3 St y, 4 F sc, 5 Ld x.
	good := func() *Execution {
		return &Execution{Test: sb(), RF: []int{-1, -1, 3, -1, -1, 0}, CO: [][]int{{0}, {3}}, SC: []int{1, 4}}
	}
	if err := good().WellFormed(); err != nil {
		t.Fatalf("good execution rejected: %v", err)
	}
	for name, mutate := range map[string]func(x *Execution){
		"empty rf":         func(x *Execution) { x.RF = []int{} },
		"rf other address": func(x *Execution) { x.RF[2] = 0 },
		"rf from a fence":  func(x *Execution) { x.RF[2] = 1 },
		"rf out of range":  func(x *Execution) { x.RF[5] = 6 },
		"rf below -1":      func(x *Execution) { x.RF[5] = -2 },
		"co missing write": func(x *Execution) { x.CO[1] = nil },
		"co missing addr":  func(x *Execution) { x.CO = x.CO[:1] },
		"co repeat":        func(x *Execution) { x.CO[0] = []int{0, 0} },
		"co foreign write": func(x *Execution) { x.CO[0] = []int{3} },
		"co extra addr":    func(x *Execution) { x.CO = append(x.CO, nil) },
		"sc short":         func(x *Execution) { x.SC = []int{1} },
		"sc repeat":        func(x *Execution) { x.SC = []int{1, 1} },
		"sc not a fence":   func(x *Execution) { x.SC = []int{1, 2} },
	} {
		x := good()
		mutate(x)
		if err := x.WellFormed(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestClone(t *testing.T) {
	m := mp()
	var snap *Execution
	Enumerate(m, EnumerateOptions{}, func(x *Execution) bool {
		snap = x.Clone()
		return false
	})
	if snap == nil {
		t.Fatal("no execution visited")
	}
	snap.RF[2] = 99
	// Mutating the clone must not corrupt later enumeration state
	// (smoke check that Clone deep-copied).
	if snap.Test != m {
		t.Error("clone lost test pointer")
	}
}

// forbiddenMPExecution builds MP's forbidden execution r1=1, r2=0:
// the acquire read observes the release store, the data read observes the
// initial value.
func forbiddenMPExecution(m *litmus.Test) *Execution {
	return &Execution{
		Test: m,
		RF:   []int{-1, -1, 1, -1}, // e2 (Ld.acq y) reads e1 (St.rel y); e3 reads initial
		CO:   [][]int{{0}, {1}},
	}
}

func TestViewBaseRelations(t *testing.T) {
	m := mp()
	x := forbiddenMPExecution(m)
	v := NewView(x, NoPerturb)

	if v.Live() != relation.UniverseSet(4) {
		t.Errorf("Live = %v", v.Live())
	}
	if !v.PO().Has(0, 1) || !v.PO().Has(2, 3) || v.PO().Has(1, 0) || v.PO().Has(1, 2) {
		t.Errorf("PO = %v", v.PO())
	}
	if !v.RF().Has(1, 2) || v.RF().Has(0, 3) {
		t.Errorf("RF = %v", v.RF())
	}
	// e3 reads initial x, so fr(e3 -> e0).
	if !v.FR().Has(3, 0) {
		t.Errorf("FR = %v", v.FR())
	}
	if v.Reads() != relation.SetOf(2, 3) || v.Writes() != relation.SetOf(0, 1) {
		t.Errorf("Reads/Writes = %v/%v", v.Reads(), v.Writes())
	}
	if !v.Ext().Has(0, 2) || v.Ext().Has(0, 1) {
		t.Errorf("Ext = %v", v.Ext())
	}
	if !v.RFE().Has(1, 2) {
		t.Errorf("RFE = %v", v.RFE())
	}
	if !v.FRE().Has(3, 0) {
		t.Errorf("FRE = %v", v.FRE())
	}
}

func TestViewCOTransitiveAndFR(t *testing.T) {
	m := litmus.New("3w", [][]litmus.Op{
		{litmus.W(0), litmus.W(0), litmus.W(0)},
		{litmus.R(0)},
	})
	x := &Execution{
		Test: m,
		RF:   []int{-1, -1, -1, 0}, // read observes first write
		CO:   [][]int{{0, 1, 2}},
	}
	v := NewView(x, NoPerturb)
	if !v.CO().Has(0, 2) {
		t.Error("CO not transitive")
	}
	// fr from read to the two co-later writes.
	if !v.FR().Has(3, 1) || !v.FR().Has(3, 2) || v.FR().Has(3, 0) {
		t.Errorf("FR = %v", v.FR())
	}
}

func TestViewRIPerturbation(t *testing.T) {
	m := mp()
	x := forbiddenMPExecution(m)

	// RI on the store to x (e0): e3's fr edge to e0 disappears.
	v := NewView(x, Perturb{Kind: PRI, Event: 0})
	if v.Live().Has(0) {
		t.Error("e0 still live")
	}
	if v.PO().Has(0, 1) {
		t.Error("po still involves removed event")
	}
	if !v.FR().IsEmpty() {
		t.Errorf("FR = %v, want empty", v.FR())
	}

	// RI on the store to y (e1): e2 becomes orphaned — no rf, no fr.
	v = NewView(x, Perturb{Kind: PRI, Event: 1})
	if !v.Orphans().Has(2) {
		t.Errorf("Orphans = %v, want {2}", v.Orphans())
	}
	if !v.RF().IsEmpty() {
		t.Errorf("RF = %v, want empty", v.RF())
	}
	// e3 still has its fr edge to e0 (it reads initial, e0 is live).
	if !v.FR().Has(3, 0) {
		t.Errorf("FR = %v, want {(3,0)}", v.FR())
	}
}

func TestViewCORepairAcrossRI(t *testing.T) {
	// Three writes to x; removing the middle one must keep first->last
	// ordering (paper Fig. 8).
	m := litmus.New("3w", [][]litmus.Op{
		{litmus.W(0)},
		{litmus.W(0)},
		{litmus.W(0)},
	})
	x := &Execution{Test: m, RF: []int{-1, -1, -1}, CO: [][]int{{0, 1, 2}}}
	v := NewView(x, Perturb{Kind: PRI, Event: 1})
	if !v.CO().Has(0, 2) {
		t.Error("co(0,2) lost after removing middle write")
	}
	if v.CO().Has(0, 1) || v.CO().Has(1, 2) {
		t.Error("co still involves removed write")
	}
}

func TestViewDMOAndDF(t *testing.T) {
	m := mp()
	x := forbiddenMPExecution(m)
	v := NewView(x, Perturb{Kind: PDMO, Event: 2, NewOrder: litmus.OPlain})
	if v.OrderOf(2) != litmus.OPlain {
		t.Errorf("OrderOf(2) = %v", v.OrderOf(2))
	}
	if v.OrderOf(1) != litmus.ORelease {
		t.Errorf("OrderOf(1) = %v", v.OrderOf(1))
	}

	f := litmus.New("fenced", [][]litmus.Op{
		{litmus.W(0), litmus.F(litmus.FSync), litmus.W(1)},
	})
	fx := &Execution{Test: f, RF: []int{-1, -1, -1}, CO: [][]int{{0}, {2}}}
	fv := NewView(fx, Perturb{Kind: PDF, Event: 1, NewFence: litmus.FLwSync})
	if fv.FenceOf(1) != litmus.FLwSync {
		t.Errorf("FenceOf = %v", fv.FenceOf(1))
	}
	if fv.FencesOfKind(litmus.FSync).Size() != 0 {
		t.Error("demoted fence still counted as sync")
	}
	if fv.FencesOfKind(litmus.FLwSync) != relation.SetOf(1) {
		t.Error("demoted fence not counted as lwsync")
	}
	// FenceRel over lwsync must relate the two writes.
	if !fv.FenceRel(litmus.FLwSync).Has(0, 2) {
		t.Error("FenceRel missing (0,2)")
	}
}

func TestViewRMWAndDeps(t *testing.T) {
	m := litmus.New("rmw", [][]litmus.Op{
		{litmus.R(0), litmus.W(0)},
		{litmus.W(0)},
	}, litmus.WithRMW(0, 0))
	x := &Execution{Test: m, RF: []int{-1, -1, -1}, CO: [][]int{{1, 2}}}

	v := NewView(x, NoPerturb)
	if !v.RMW().Has(0, 1) {
		t.Error("rmw edge missing")
	}
	// Implicit data dependency from the pair.
	if !v.Dep(litmus.DepData).Has(0, 1) {
		t.Error("implicit RMW data dep missing")
	}

	// DRMW dissolves the pair but keeps the data dep.
	v = NewView(x, Perturb{Kind: PDRMW, Event: 0})
	if !v.RMW().IsEmpty() {
		t.Error("rmw edge survives DRMW")
	}
	if !v.Dep(litmus.DepData).Has(0, 1) {
		t.Error("data dep lost under DRMW")
	}

	// RD removes both the dep and the rmw pairing (paper Fig. 6 rmw_p).
	v = NewView(x, Perturb{Kind: PRD, Event: 0})
	if !v.RMW().IsEmpty() {
		t.Error("rmw edge survives RD")
	}
	if !v.Dep(litmus.DepData).IsEmpty() {
		t.Error("dep survives RD")
	}
}

func TestViewExplicitDeps(t *testing.T) {
	m := litmus.New("lb+datas", [][]litmus.Op{
		{litmus.R(0), litmus.W(1)},
		{litmus.R(1), litmus.W(0)},
	}, litmus.WithDep(0, 0, 1, litmus.DepData), litmus.WithDep(1, 0, 1, litmus.DepAddr))
	x := &Execution{Test: m, RF: []int{3, -1, 1, -1}, CO: [][]int{{3}, {1}}}
	v := NewView(x, NoPerturb)
	if !v.Dep(litmus.DepData).Has(0, 1) || !v.Dep(litmus.DepAddr).Has(2, 3) {
		t.Errorf("deps = %v / %v", v.Dep(litmus.DepData), v.Dep(litmus.DepAddr))
	}
	if v.DepAll().Size() != 2 {
		t.Errorf("DepAll = %v", v.DepAll())
	}
	// RD on e0 drops only e0's dep.
	v = NewView(x, Perturb{Kind: PRD, Event: 0})
	if v.DepAll().Size() != 1 || !v.DepAll().Has(2, 3) {
		t.Errorf("DepAll after RD = %v", v.DepAll())
	}
}

func TestViewSCRel(t *testing.T) {
	m := sb()
	x := &Execution{
		Test: m,
		RF:   []int{-1, -1, -1, -1, -1, -1},
		CO:   [][]int{{0}, {3}},
		SC:   []int{1, 4},
	}
	v := NewView(x, NoPerturb)
	if !v.SCRel().Has(1, 4) || v.SCRel().Has(4, 1) || v.SCRel().Size() != 1 {
		t.Errorf("SCRel = %v", v.SCRel())
	}
	// A fence demoted out of FSC leaves the order.
	v = NewView(x, Perturb{Kind: PDF, Event: 1, NewFence: litmus.FAcqRel})
	if !v.SCRel().IsEmpty() {
		t.Errorf("SCRel after DF = %v", v.SCRel())
	}
	// An RI'd fence leaves the order.
	v = NewView(x, Perturb{Kind: PRI, Event: 4})
	if !v.SCRel().IsEmpty() {
		t.Errorf("SCRel after RI = %v", v.SCRel())
	}
}

func TestViewScopeCompatible(t *testing.T) {
	m := litmus.New("scoped", [][]litmus.Op{
		{litmus.W(0).WithScope(litmus.ScopeWG)},
		{litmus.R(0).WithScope(litmus.ScopeWG)},
		{litmus.R(0).WithScope(litmus.ScopeSys)},
	}, litmus.WithGroups(0, 0, 1))
	x := &Execution{Test: m, RF: []int{-1, 0, 0}, CO: [][]int{{0}}}
	v := NewView(x, NoPerturb)
	sc := v.ScopeCompatible()
	if !sc.Has(0, 1) {
		t.Error("same-group WG pair not compatible")
	}
	if sc.Has(0, 2) {
		t.Error("cross-group WG/Sys pair compatible (WG side does not cover)")
	}
	// DS demotion of e1 from WG does not exist (already WG); demote e2's
	// Sys to WG: still incompatible with e0 (different groups).
	v = NewView(x, Perturb{Kind: PDS, Event: 2, NewScope: litmus.ScopeWG})
	if v.ScopeCompatible().Has(0, 2) {
		t.Error("cross-group WG/WG pair compatible")
	}
}

func TestOutcomeStringStable(t *testing.T) {
	m := mp()
	x := forbiddenMPExecution(m)
	if got := x.OutcomeString(); got != "r2=1 r3=0 [x]=1 [y]=1" {
		t.Errorf("OutcomeString = %q", got)
	}
}
