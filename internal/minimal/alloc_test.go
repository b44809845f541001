package minimal

import (
	"testing"

	"memsynth/internal/exec"
	. "memsynth/internal/litmus"
	"memsynth/internal/memmodel"
)

// TestCheckerAllocs: a warm Checker binds a program and checks every one
// of its executions without allocating. Apps and the verdict's
// ViolatedAxioms come from buffers the checker owns.
func TestCheckerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	mp := New("MP", [][]Op{{W(0), W(1)}, {R(1), R(0)}})
	mpSync := New("MP+sync+addr", [][]Op{{W(0), F(FSync), W(1)}, {R(1), R(0)}}, WithDep(1, 0, 1, DepAddr))
	for _, tc := range []struct {
		m  memmodel.Model
		lt *Test
	}{{memmodel.TSO(), mp}, {memmodel.Power(), mpSync}} {
		var xs []*exec.Execution
		exec.Enumerate(tc.lt, exec.EnumerateOptions{}, func(x *exec.Execution) bool {
			xs = append(xs, x.Clone())
			return true
		})
		c := NewChecker(tc.m)
		violations := 0
		run := func() {
			c.Bind(tc.lt)
			for _, x := range xs {
				violations += len(c.Check(x).ViolatedAxioms)
			}
		}
		run()
		if violations == 0 {
			t.Fatalf("%s under %s: no execution violates an axiom", tc.lt.Name, tc.m.Name())
		}
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("%s under %s: a warm Bind and Check of every execution allocate %.1f times", tc.lt.Name, tc.m.Name(), allocs)
		}
	}
}
