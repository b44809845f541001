package admit_test

import (
	"fmt"
	"reflect"
	"testing"

	"memsynth/internal/admit"
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/relation"
	"memsynth/internal/synth"
)

// Reference formulas of the axioms memmodel states once, written out as
// each model stated them by hand.
func scPerLocRef(v *exec.View) bool { return v.Com().Union(v.POLoc()).Acyclic() }
func scOrderRef(v *exec.View) bool  { return v.Com().Union(v.PO()).Acyclic() }

func tsoCausalityRef(v *exec.View) bool {
	ppo := v.PO().Minus(relation.Cross(v.N(), v.Writes(), v.Reads()))
	fence := v.FenceRel(litmus.FMFence)
	return v.RFE().Union(v.CO()).Union(v.FR()).Union(ppo).Union(fence).Acyclic()
}

func rmwExternalRef(v *exec.View) bool {
	return v.FRE().Join(v.COE()).Intersect(v.RMW()).IsEmpty()
}

func rmwRef(v *exec.View) bool { return v.FR().Join(v.CO()).Intersect(v.RMW()).IsEmpty() }

// referenceAxioms maps model → axiom → reference formula.
var referenceAxioms = map[string]map[string]func(*exec.View) bool{
	"sc":    {"sc_order": scOrderRef, "rmw_atomicity": rmwExternalRef},
	"tso":   {"sc_per_loc": scPerLocRef, "rmw_atomicity": rmwExternalRef, "causality": tsoCausalityRef},
	"power": {"sc_per_loc": scPerLocRef, "rmw_atomicity": rmwExternalRef},
	"armv7": {"sc_per_loc": scPerLocRef, "rmw_atomicity": rmwExternalRef},
	"armv8": {"sc_per_loc": scPerLocRef, "rmw_atomicity": rmwExternalRef},
	"scc":   {"sc_per_loc": scPerLocRef, "rmw_atomicity": rmwRef},
	"hsa":   {"sc_per_loc": scPerLocRef, "rmw_atomicity": rmwRef},
	"c11":   {"rmw_atomicity": rmwRef},
}

// referenceGraphs returns the graphs admit saturated for a model before
// they were read from its axioms: sc_order's po for sc, sc_per_loc's
// po_loc plus causality's ppo ∪ mfence order (with rfe) for tso, and
// sc_per_loc's po_loc for the other models that state it.
func referenceGraphs(model string, c *exec.StaticCtx) (bases []relation.Rel, rfExternal []bool) {
	switch model {
	case "sc":
		return []relation.Rel{c.PO()}, []bool{false}
	case "tso":
		ppo := c.PO().Minus(relation.Cross(c.N(), c.Writes(), c.Reads()))
		ppo.UnionWith(c.FenceRel(litmus.FMFence))
		return []relation.Rel{c.POLoc(), ppo}, []bool{false, true}
	}
	return []relation.Rel{c.POLoc()}, []bool{false}
}

// TestDeclaredAxiomsMatchReference pins the axioms stated once in
// memmodel to the formulas they replace. Over the distinct programs of
// every builtin's bound-4 stream, under the unperturbed model and every
// relaxation application, each axiom's Holds must equal its reference on
// every execution; and the graphs admit saturates for each application
// must equal the reference graphs edge for edge. Under the race detector
// or -short it samples about 3,000 programs of each stream.
func TestDeclaredAxiomsMatchReference(t *testing.T) {
	for _, m := range memmodel.All() {
		t.Run(m.Name(), func(t *testing.T) {
			refs := referenceAxioms[m.Name()]
			axioms := m.Axioms()
			named := 0
			for _, a := range axioms {
				if refs[a.Name] != nil {
					named++
				} else if a.Graph != nil {
					t.Fatalf("axiom %s declares a graph but has no reference formula", a.Name)
				}
			}
			if named != len(refs) {
				t.Fatalf("%d of %d reference axioms found in the model", named, len(refs))
			}
			checkDeclaredAxioms(t, m, axioms, refs)
		})
	}
}

func checkDeclaredAxioms(t *testing.T, m memmodel.Model, axioms []memmodel.Axiom, refs map[string]func(*exec.View) bool) {
	adm := admit.NewChecker(m)
	checks := 0
	programs := distinctPrograms(t, m, synth.Options{MaxEvents: 4}, func(tt *litmus.Test) bool {
		apps := memmodel.Applications(m, tt)
		if adm != nil {
			adm.Bind(tt, apps)
		}
		views := []*exec.View{exec.NewStaticCtx(tt, exec.NoPerturb).NewView()}
		for i, app := range apps {
			ctx := exec.NewStaticCtx(tt, app)
			views = append(views, ctx.NewView())
			if adm == nil {
				continue
			}
			gotBases, gotExt := admit.AppGraphs(adm, i)
			wantBases, wantExt := referenceGraphs(m.Name(), ctx)
			if !reflect.DeepEqual(gotExt, wantExt) || !sameRels(gotBases, wantBases) {
				t.Fatalf("application %v: admit graphs %v (rfe %v), want %v (rfe %v)\n%s",
					app, gotBases, gotExt, wantBases, wantExt, tt)
			}
		}
		exec.Enumerate(tt, exec.EnumerateOptions{}, func(x *exec.Execution) bool {
			for vi, v := range views {
				v.Reset(x)
				for _, a := range axioms {
					ref := refs[a.Name]
					if ref == nil {
						continue
					}
					checks++
					if got, want := a.Holds(v), ref(v); got != want {
						t.Fatalf("%s under %s: Holds = %v, reference = %v (rf %v, co %v)\n%s",
							a.Name, appName(apps, vi), got, want, x.RF, x.CO, tt)
					}
				}
			}
			return true
		})
		return !t.Failed()
	})
	if checks == 0 {
		t.Fatal("no axiom evaluations; the gate is vacuous")
	}
	t.Logf("%d programs, %d axiom evaluations", programs, checks)
}

func sameRels(a, b []relation.Rel) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// appName names view vi: 0 is the unperturbed model, i+1 is apps[i].
func appName(apps []exec.Perturb, vi int) string {
	if vi == 0 {
		return "no relaxation"
	}
	return fmt.Sprint(apps[vi-1])
}
