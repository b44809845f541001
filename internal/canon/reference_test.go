package canon_test

import (
	"fmt"
	"strings"
	"testing"

	"memsynth/internal/canon"
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/synth"
)

// The reference encoder below is the original full search: it formats the
// encoding of every thread permutation and keeps the least. canon's
// branch-and-bound search must return byte-identical keys.

func minimalEncoding(t *litmus.Test, x *exec.Execution) string {
	numThreads := t.NumThreads()
	best := ""
	perm := make([]int, numThreads)
	for i := range perm {
		perm[i] = i
	}
	forEachPerm(perm, func(p []int) {
		enc := encode(t, x, p)
		if best == "" || enc < best {
			best = enc
		}
	})
	return best
}

func forEachPerm(items []int, visit func([]int)) {
	var rec func(k int)
	rec = func(k int) {
		if k == len(items) {
			visit(items)
			return
		}
		for i := k; i < len(items); i++ {
			items[k], items[i] = items[i], items[k]
			rec(k + 1)
			items[k], items[i] = items[i], items[k]
		}
	}
	rec(0)
}

// encode renders the test (and execution) under the given thread
// permutation: perm[newThread] = oldThread.
func encode(t *litmus.Test, x *exec.Execution, perm []int) string {
	// New global IDs: events of perm[0] first, in program order, etc.
	newID := make([]int, len(t.Events))
	var order []int // old IDs in new order
	for _, oldTh := range perm {
		for _, id := range t.Thread(oldTh) {
			newID[id] = len(order)
			order = append(order, id)
		}
	}

	// Addresses renamed in first-use order.
	addrRename := map[int]int{}
	addrOf := func(a int) int {
		if a < 0 {
			return -1
		}
		if r, ok := addrRename[a]; ok {
			return r
		}
		r := len(addrRename)
		addrRename[a] = r
		return r
	}

	// Groups renamed in first-use order of the permuted threads.
	groupRename := map[int]int{}
	groupOf := func(oldTh int) int {
		g := t.GroupOf(oldTh)
		if r, ok := groupRename[g]; ok {
			return r
		}
		r := len(groupRename)
		groupRename[g] = r
		return r
	}

	var b strings.Builder
	for newTh, oldTh := range perm {
		fmt.Fprintf(&b, "T%d,g%d:", newTh, groupOf(oldTh))
		for _, id := range t.Thread(oldTh) {
			e := t.Events[id]
			fmt.Fprintf(&b, "[k%do%df%ds%da%d]",
				e.Kind, e.Order, e.Fence, e.Scope, addrOf(e.Addr))
		}
		b.WriteByte(';')
	}

	// Deps and RMW pairs in new-ID order.
	b.WriteString("D")
	for _, d := range sortedPairs3(t.Deps, newID) {
		fmt.Fprintf(&b, "(%d,%d,%d)", d[0], d[1], d[2])
	}
	b.WriteString("M")
	for _, p := range sortedPairs2(t.RMW, newID) {
		fmt.Fprintf(&b, "(%d,%d)", p[0], p[1])
	}

	if x == nil {
		return b.String()
	}

	// rf per read in new order.
	b.WriteString("R")
	for _, id := range order {
		if t.Events[id].Kind != litmus.KRead {
			continue
		}
		src := x.RF[id]
		if src < 0 {
			b.WriteString("(i)")
		} else {
			fmt.Fprintf(&b, "(%d)", newID[src])
		}
	}
	// co per canonical address: renamed addresses enumerate in first-use
	// order, so emit in that order. Invert addrRename: canonical -> old.
	b.WriteString("C")
	inv := make([]int, len(addrRename))
	for old, canon := range addrRename {
		inv[canon] = old
	}
	for canonAddr := 0; canonAddr < len(inv); canonAddr++ {
		oldAddr := inv[canonAddr]
		b.WriteByte('|')
		if oldAddr < len(x.CO) {
			for _, w := range x.CO[oldAddr] {
				fmt.Fprintf(&b, "%d,", newID[w])
			}
		}
	}
	// sc order.
	if x.SC != nil {
		b.WriteString("S")
		for _, f := range x.SC {
			fmt.Fprintf(&b, "%d,", newID[f])
		}
	}
	return b.String()
}

func sortedPairs3(deps []litmus.Dep, newID []int) [][3]int {
	out := make([][3]int, 0, len(deps))
	for _, d := range deps {
		out = append(out, [3]int{newID[d.From], newID[d.To], int(d.Type)})
	}
	sortTriples(out)
	return out
}

func sortedPairs2(pairs [][2]int, newID []int) [][2]int {
	out := make([][2]int, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, [2]int{newID[p[0]], newID[p[1]]})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less2(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func sortTriples(xs [][3]int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && less3(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func less2(a, b [2]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

func less3(a, b [3]int) bool {
	for i := 0; i < 3; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// TestKeyMatchesReference checks ProgramKey against the reference on every
// program of every builtin model at bound 4, and Key on the executions of
// evenly spaced programs (about 6,000 per stream; 1,500 of tso@6, whose
// programs have many executions each). Without the race detector
// it also runs the full power@5 and tso@6 program streams; with it, only
// about 20,000 evenly spaced programs per bound-4 stream are keyed. Between
// them the models cover dependencies (power, armv8), RMW pairs, scope
// groups (scc, hsa) and sc orders (c11, scc).
func TestKeyMatchesReference(t *testing.T) {
	for _, m := range memmodel.All() {
		t.Run(m.Name()+"@4", func(t *testing.T) { checkStream(t, m, 4, 6000) })
	}
	for _, tc := range []struct {
		model   string
		bound   int
		sampled int
	}{{"power", 5, 6000}, {"tso", 6, 1500}} {
		t.Run(fmt.Sprintf("%s@%d", tc.model, tc.bound), func(t *testing.T) {
			if raceEnabled {
				t.Skip("full bound-5/6 streams are too slow under the race detector")
			}
			m, err := memmodel.ByName(tc.model)
			if err != nil {
				t.Fatal(err)
			}
			checkStream(t, m, tc.bound, tc.sampled)
		})
	}
}

// scOrders returns the sc orders checkStream keys each execution of lt
// under: every order of its sc fences for c11 and scc, whose programs
// carry several, else only the nil order.
func scOrders(m memmodel.Model, lt *litmus.Test) [][]int {
	if m.Name() == "c11" || m.Name() == "scc" {
		if orders := exec.SCOrders(lt); orders != nil {
			return orders
		}
	}
	return [][]int{nil}
}

// checkStream compares both keys with the reference over the model's
// program stream up to bound, keying the executions of about sampled
// programs.
func checkStream(t *testing.T, m memmodel.Model, bound, sampled int) {
	t.Helper()
	opts := synth.Options{MaxEvents: bound}
	total := 0
	if err := synth.EnumeratePrograms(m.Vocab(), opts, func(*litmus.Test) bool { total++; return true }); err != nil {
		t.Fatal(err)
	}
	keyEvery, execEvery := 1, max(1, total/sampled)
	if raceEnabled {
		keyEvery = max(1, total/20000)
	}
	programs, executions, failures := 0, 0, 0
	fail := func(format string, args ...any) bool {
		t.Errorf(format, args...)
		failures++
		return failures < 5
	}
	i := -1
	err := synth.EnumeratePrograms(m.Vocab(), opts, func(lt *litmus.Test) bool {
		i++
		if i%keyEvery == 0 {
			programs++
			if got, want := canon.ProgramKey(lt), minimalEncoding(lt, nil); got != want {
				return fail("ProgramKey(%s):\n got %s\nwant %s", litmus.Format(lt), got, want)
			}
		}
		if i%execEvery != 0 {
			return true
		}
		ok := true
		orders := scOrders(m, lt)
		exec.Enumerate(lt, exec.EnumerateOptions{}, func(x *exec.Execution) bool {
			for _, sc := range orders {
				x.SC = sc
				executions++
				if got, want := canon.Key(x), minimalEncoding(lt, x); got != want {
					ok = fail("Key(%s, %s, sc %v):\n got %s\nwant %s", litmus.Format(lt), x.OutcomeString(), x.SC, got, want)
					return false
				}
			}
			return true
		})
		return ok
	})
	if err != nil {
		t.Fatal(err)
	}
	if programs == 0 || executions == 0 {
		t.Fatalf("%s@%d: compared %d programs and %d executions", m.Name(), bound, programs, executions)
	}
	t.Logf("%d of %d programs keyed, %d executions keyed", programs, total, executions)
}
