package admit_test

import (
	"strings"
	"testing"

	"memsynth/internal/admit"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/synth"
)

// TestSubsumedGraphs: each relaxation-application slot saturates only the
// graphs no other graph subsumes. On the single-address tso@6 stream,
// sc_per_loc subsumes causality on memory events in every slot; on the
// multi-address tso@6 stream some slots keep both graphs and some drop
// causality; and a builtin that declares one graph never drops it. Under
// the race detector or -short it samples about 3,000 programs of each
// stream.
func TestSubsumedGraphs(t *testing.T) {
	tso, err := memmodel.ByName("tso")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("tso@6/addrs=1", func(t *testing.T) {
		slots := activeGraphs(t, tso, synth.Options{MaxEvents: 6, MaxAddrs: 1})
		if len(slots) != 1 || slots["sc_per_loc"] == 0 {
			t.Errorf("active graphs per slot: %v; want sc_per_loc alone in every slot", slots)
		}
	})
	t.Run("tso@6", func(t *testing.T) {
		slots := activeGraphs(t, tso, synth.Options{MaxEvents: 6})
		if len(slots) != 2 || slots["sc_per_loc+causality"] == 0 || slots["sc_per_loc"] == 0 {
			t.Errorf("active graphs per slot: %v; want both graphs in some slots and sc_per_loc alone in the others", slots)
		}
	})
	for _, name := range []string{"sc", "power", "armv7", "armv8", "scc", "hsa"} {
		t.Run(name+"@4", func(t *testing.T) {
			m, err := memmodel.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			graphs := graphNames(m)
			if len(graphs) != 1 {
				t.Fatalf("%s declares graphs %v; want one", name, graphs)
			}
			slots := activeGraphs(t, m, synth.Options{MaxEvents: 4})
			if len(slots) != 1 || slots[graphs[0]] == 0 {
				t.Errorf("active graphs per slot: %v; want %s in every slot", slots, graphs[0])
			}
		})
	}
}

// graphNames returns the names of m's axioms that declare a graph, in the
// order the Checker indexes them.
func graphNames(m memmodel.Model) []string {
	var names []string
	for _, a := range m.Axioms() {
		if a.Graph != nil {
			names = append(names, a.Name)
		}
	}
	return names
}

// activeGraphs binds every distinct program of m's stream and counts its
// relaxation-application slots by their active graphs, named and joined
// with "+".
func activeGraphs(t *testing.T, m memmodel.Model, opts synth.Options) map[string]int {
	t.Helper()
	graphs := graphNames(m)
	c := admit.NewChecker(m)
	slots := make(map[string]int)
	programs := distinctPrograms(t, m, opts, func(tt *litmus.Test) bool {
		apps := memmodel.Applications(m, tt)
		c.Bind(tt, apps)
		for i := range apps {
			var active []string
			for _, k := range admit.ActiveGraphs(c, i) {
				active = append(active, graphs[k])
			}
			slots[strings.Join(active, "+")]++
		}
		return true
	})
	t.Logf("%d programs, slots by active graphs: %v", programs, slots)
	return slots
}
