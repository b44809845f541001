package admit_test

import (
	"testing"

	"memsynth/internal/admit"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/synth"
)

// TestApplicationGraphsWithinBase pins the premise that lets Decide admit
// through the unperturbed program: every relaxation only removes static
// edges, so under every relaxation application each declared graph's
// closed static base, on the application's live events, lies inside the
// graph's closed static base in the unperturbed program, and the graph
// includes the same rf edges (all of rf, or only rfe) in both. Then each
// application's lower bound lies inside the unperturbed program's, its
// forced co edges are among the unperturbed program's, and Decide may
// stop saturating applications once their union reaches that set. It
// runs over every distinct program of every supported builtin's bound-4
// stream; under the race detector or -short it samples about 3,000
// programs of each. A graph a future model declares (a cat-declared graph
// included) must pass it too, or Decide's early admission is unsound.
func TestApplicationGraphsWithinBase(t *testing.T) {
	for _, name := range admit.SupportedBuiltins() {
		t.Run(name+"@4", func(t *testing.T) {
			m, err := memmodel.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			c := admit.NewChecker(m)
			apps := 0
			programs := distinctPrograms(t, m, synth.Options{MaxEvents: 4}, func(tt *litmus.Test) bool {
				ps := memmodel.Applications(m, tt)
				c.Bind(tt, ps)
				base, baseExt, _ := admit.ClosedGraphs(c, -1)
				for i, p := range ps {
					apps++
					closed, rfExt, live := admit.ClosedGraphs(c, i)
					for k := range closed {
						if rfExt[k] != baseExt[k] {
							t.Fatalf("graph %d under %v includes rfe only = %v, unperturbed %v\n%s", k, p, rfExt[k], baseExt[k], tt)
						}
						closed[k].RestrictIn(live, live)
						if !closed[k].SubsetOf(base[k]) {
							t.Fatalf("graph %d under %v has closed static base %v, not within the unperturbed %v\n%s",
								k, p, closed[k], base[k], tt)
						}
					}
				}
				return true
			})
			if apps == 0 {
				t.Fatal("no relaxation application; the check is vacuous")
			}
			t.Logf("%d programs, %d applications", programs, apps)
		})
	}
}

// TestUnionShortOfBase pins an admitted rf assignment whose applications'
// forced co edges never reach the unperturbed program's, so Decide must
// saturate every application rather than admit on the unperturbed
// program alone. In St x; St x; St y || Ld y; Ld x || St y, with Ld y
// reading T2's St y and Ld x the first St x, the unperturbed program
// forces co(St x, St x) and, through Ld y →ppo Ld x →fr St x →ppo St y,
// co(St y(T2), St y(T0)). Every application removes one of the events
// that chain needs, so only co(St x, St x) is forced by an application,
// and the coherence order that puts T0's St y first is still accepted by
// Extends: it is forbidden unperturbed, which a minimal execution must
// be, so it must reach the minimality check.
func TestUnionShortOfBase(t *testing.T) {
	m, err := memmodel.ByName("tso")
	if err != nil {
		t.Fatal(err)
	}
	x, y := 0, 1
	tt := litmus.New("union-short-of-base", [][]litmus.Op{
		{litmus.W(x), litmus.W(x), litmus.W(y)},
		{litmus.R(y), litmus.R(x)},
		{litmus.W(y)},
	})
	rf := []int{-1, -1, -1, 5, 0, -1}
	apps := memmodel.Applications(m, tt)
	c, ref := admit.NewChecker(m), admit.NewReferenceChecker(m)
	c.Bind(tt, apps)
	ref.Bind(tt, apps)
	if !c.Decide(rf) || !ref.Decide(rf) {
		t.Fatalf("rf %v refuted\n%s", rf, tt)
	}
	union := admit.UnionCo(c).Clone()
	if want := ref.UnionCo(); !union.Equal(want) {
		t.Errorf("forced co %v, reference %v", union, want)
	}
	ok, base := admit.BaseForcedCo(c, rf)
	if !ok {
		t.Fatalf("the unperturbed program refutes rf %v", rf)
	}
	if !union.SubsetOf(base) || union.Equal(base) {
		t.Errorf("forced co %v is not a strict subset of the unperturbed program's %v", union, base)
	}
	co := [][]int{{0, 1}, {2, 5}} // per address: x, then y
	if !base.Has(5, 2) {
		t.Errorf("the unperturbed program does not force co(e5, e2): %v", base)
	}
	if !c.Extends(co) {
		t.Errorf("Extends rejects co %v, which breaks only the unperturbed program's co(e5, e2)", co)
	}
}
