package canon

import (
	"math/rand"
	"testing"

	"memsynth/internal/exec"
	"memsynth/internal/litmus"
)

// randomRichTest draws a random test of one to four threads of one to four
// events, with an RMW pair, dependencies and scope groups at random, plus
// one of its executions.
func randomRichTest(rng *rand.Rand) (*litmus.Test, *exec.Execution) {
	numThreads := 1 + rng.Intn(4)
	var threads [][]litmus.Op
	var opts []litmus.Option
	rmw := false
	for th := 0; th < numThreads; th++ {
		size := 1 + rng.Intn(4)
		var ops []litmus.Op
		for i := 0; i < size; i++ {
			addr := rng.Intn(3)
			if !rmw && i+1 < size && rng.Intn(4) == 0 {
				rmw = true
				ops = append(ops, litmus.R(addr), litmus.W(addr))
				opts = append(opts, litmus.WithRMW(th, i))
				i++
				continue
			}
			switch rng.Intn(4) {
			case 0:
				ops = append(ops, litmus.R(addr))
			case 1:
				ops = append(ops, litmus.W(addr).WithScope(litmus.Scope(rng.Intn(3))))
			case 2:
				ops = append(ops, litmus.Racq(addr))
			case 3:
				ops = append(ops, litmus.F(litmus.FSync))
			}
		}
		// One dependency from the thread's first read to a later access.
		for i, op := range ops {
			if op.Kind() != litmus.KRead || rng.Intn(2) == 0 {
				continue
			}
			for j := i + 1; j < len(ops); j++ {
				if !ops[j].IsFence() && !(rmw && j == i+1) {
					opts = append(opts, litmus.WithDep(th, i, j, litmus.DepAddr))
					break
				}
			}
			break
		}
		threads = append(threads, ops)
	}
	if rng.Intn(2) == 0 {
		groups := make([]int, numThreads)
		for th := range groups {
			groups[th] = rng.Intn(2)
		}
		opts = append(opts, litmus.WithGroups(groups...))
	}
	t := litmus.New("rich", contiguous(threads), opts...)
	var chosen *exec.Execution
	n, i := rng.Intn(16), 0
	exec.Enumerate(t, exec.EnumerateOptions{}, func(x *exec.Execution) bool {
		chosen = x.Clone()
		i++
		return i <= n
	})
	return t, chosen
}

// contiguous renames addresses in first-use order, as Validate requires.
func contiguous(threads [][]litmus.Op) [][]litmus.Op {
	remap := map[int]int{}
	for _, ops := range threads {
		for i, op := range ops {
			if op.IsFence() {
				continue
			}
			na, ok := remap[op.Addr()]
			if !ok {
				na = len(remap)
				remap[op.Addr()] = na
			}
			ops[i] = op.WithAddr(na)
		}
	}
	return threads
}

// TestReusedEncoderMatchesFresh: one encoder reused across programs of
// mixed sizes and thread counts, alternating program and execution keys,
// must return the keys a fresh encoder returns for each, so no state of
// an earlier key leaks into a later one.
func TestReusedEncoderMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var reused encoder
	for i := 0; i < 3000; i++ {
		lt, x := randomRichTest(rng)
		if i%2 == 0 {
			x = nil
		}
		got := reused.key(lt, x)
		if want := new(encoder).key(lt, x); got != want {
			t.Fatalf("key %d of %s: reused encoder %s, fresh %s", i, lt, got, want)
		}
		if reused.t != nil || reused.x != nil {
			t.Fatal("encoder keeps its test after key returns")
		}
	}
}
