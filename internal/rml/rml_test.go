package rml

import (
	"testing"

	"memsynth/internal/relation"
)

func TestSolveSimple(t *testing.T) {
	p := NewProblem(3)
	p.Declare("r", relation.New(3), relation.Full(3))
	p.Fact(In(0, 1, Var("r")))
	p.Fact(In(1, 2, Var("r")))
	p.Fact(Subset(Join(Var("r"), Var("r")), Var("r"))) // transitive
	m, ok, err := p.Solve()
	if err != nil || !ok {
		t.Fatalf("Solve: ok=%v err=%v", ok, err)
	}
	if !m["r"].Has(0, 2) {
		t.Errorf("transitivity not enforced: %v", m["r"])
	}
}

func TestSolveUnsat(t *testing.T) {
	p := NewProblem(2)
	p.Declare("r", relation.New(2), relation.Full(2))
	p.Fact(In(0, 1, Var("r")))
	p.Fact(Empty(Var("r")))
	_, ok, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("contradiction reported SAT")
	}
}

func TestBounds(t *testing.T) {
	lower := relation.FromPairs(3, [2]int{0, 1})
	upper := relation.FromPairs(3, [2]int{0, 1}, [2]int{1, 2})
	p := NewProblem(3)
	p.Declare("r", lower, upper)
	count, err := p.EnumerateModels(func(m Model) bool {
		if !m["r"].Has(0, 1) {
			t.Error("lower bound violated")
		}
		if m["r"].Has(2, 0) {
			t.Error("upper bound violated")
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// One free cell (1,2): exactly two models.
	if count != 2 {
		t.Errorf("models = %d, want 2", count)
	}
}

func TestAcyclicFormula(t *testing.T) {
	// Force a 2-cycle and demand acyclicity: UNSAT.
	p := NewProblem(2)
	p.Declare("r", relation.FromPairs(2, [2]int{0, 1}, [2]int{1, 0}), relation.Full(2))
	p.Fact(Acyclic(Var("r")))
	if _, ok, _ := p.Solve(); ok {
		t.Error("cyclic forced relation reported acyclic-satisfiable")
	}

	p2 := NewProblem(2)
	p2.Declare("r", relation.FromPairs(2, [2]int{0, 1}), relation.FromPairs(2, [2]int{0, 1}, [2]int{1, 0}))
	p2.Fact(Acyclic(Var("r")))
	m, ok, err := p2.Solve()
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if m["r"].Has(1, 0) {
		t.Error("model kept the cycle")
	}
}

func TestTransposeAndClosure(t *testing.T) {
	p := NewProblem(4)
	chain := relation.FromPairs(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3})
	p.Declare("r", relation.New(4), relation.Full(4))
	p.Fact(Subset(Const(chain), Var("r")))
	p.Fact(Subset(Var("r"), Const(chain))) // r == chain
	p.Fact(In(3, 0, Transpose(Closure(Var("r")))))
	if _, ok, _ := p.Solve(); !ok {
		t.Error("closure/transpose fact unsatisfiable")
	}
	p2 := NewProblem(4)
	p2.Declare("r", chain, chain)
	p2.Fact(In(0, 3, Transpose(Var("r"))))
	if _, ok, _ := p2.Solve(); ok {
		t.Error("(0,3) in transpose of chain should be false")
	}
}

func TestEnumerateCount(t *testing.T) {
	// All relations over a 2-atom universe: 2^4 = 16 models.
	p := NewProblem(2)
	p.Declare("r", relation.New(2), relation.Full(2))
	count, err := p.EnumerateModels(func(Model) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if count != 16 {
		t.Errorf("models = %d, want 16", count)
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	p := NewProblem(2)
	p.Declare("r", relation.New(2), relation.Full(2))
	count, err := p.EnumerateModels(func(Model) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("visited %d, want 1", count)
	}
}

func TestUndeclaredVariable(t *testing.T) {
	p := NewProblem(2)
	p.Fact(Empty(Var("ghost")))
	if _, _, err := p.Solve(); err == nil {
		t.Error("undeclared variable accepted")
	}
}

// TestAcyclicPolarity cross-checks the one-sided acyclicity encodings
// (topological order for positive occurrences, cycle certificate for
// negative ones) against brute-force enumeration: every assignment of a
// free 4-atom relation must satisfy Acyclic / Not(Acyclic) exactly when
// the concrete relation is acyclic / cyclic.
func TestAcyclicPolarity(t *testing.T) {
	const n = 4
	countModels := func(f Formula) (int, map[string]bool) {
		p := NewProblem(n)
		p.Declare("r", relation.New(n), relation.Full(n))
		p.Fact(f)
		seen := make(map[string]bool)
		_, err := p.EnumerateModels(func(m Model) bool {
			seen[m["r"].String()] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return len(seen), seen
	}
	posN, pos := countModels(Acyclic(Var("r")))
	negN, neg := countModels(Not(Acyclic(Var("r"))))

	// Brute force over all 2^(n*n) relations.
	wantPos, wantNeg := 0, 0
	for bitsv := 0; bitsv < 1<<(n*n); bitsv++ {
		r := relation.New(n)
		for idx := 0; idx < n*n; idx++ {
			if bitsv&(1<<idx) != 0 {
				r.Add(idx/n, idx%n)
			}
		}
		if r.Acyclic() {
			wantPos++
			if !pos[r.String()] {
				t.Fatalf("acyclic %v not a model of Acyclic", r)
			}
			if neg[r.String()] {
				t.Fatalf("acyclic %v is a model of Not(Acyclic)", r)
			}
		} else {
			wantNeg++
			if !neg[r.String()] {
				t.Fatalf("cyclic %v not a model of Not(Acyclic)", r)
			}
			if pos[r.String()] {
				t.Fatalf("cyclic %v is a model of Acyclic", r)
			}
		}
	}
	if posN != wantPos || negN != wantNeg {
		t.Errorf("model counts: Acyclic %d (want %d), Not(Acyclic) %d (want %d)",
			posN, wantPos, negN, wantNeg)
	}
}

// TestReflexiveExpr checks Reflexive against RClosure on a transitive
// relation (their intended equivalence class) and the full-diagonal
// semantics both share.
func TestReflexiveExpr(t *testing.T) {
	r := relation.New(3)
	r.Add(0, 1)
	r.Add(1, 2)
	r.Add(0, 2) // transitive
	p := NewProblem(3)
	p.Declare("x", relation.New(3), relation.Full(3))
	p.Fact(Subset(Reflexive(Const(r)), Var("x")))
	p.Fact(Subset(Var("x"), RClosure(Const(r))))
	m, ok, err := p.Solve()
	if err != nil || !ok {
		t.Fatalf("Solve: ok=%v err=%v", ok, err)
	}
	want := r.ReflexiveClosure()
	if !m["x"].Equal(want) {
		t.Errorf("x = %v, want %v", m["x"], want)
	}
}

// TestInstanceIncremental drives the Instance API directly: compile once,
// then alternate Solve and Block to walk every model, matching
// EnumerateModels.
func TestInstanceIncremental(t *testing.T) {
	build := func() *Problem {
		p := NewProblem(2)
		p.Declare("r", relation.New(2), relation.Full(2))
		p.Fact(Irreflexive(Var("r")))
		return p
	}
	want, err := build().EnumerateModels(func(Model) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	in, err := build().Compile()
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		m, ok, err := in.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got++
		if got > want {
			t.Fatalf("instance enumerated more than %d models", want)
		}
		if !in.Block(m) {
			break
		}
	}
	if got != want {
		t.Errorf("instance enumerated %d models, want %d", got, want)
	}
	if want != 4 { // 2 off-diagonal free cells
		t.Errorf("irreflexive over 2 atoms has %d models, want 4", want)
	}
}

// TestInstanceBudget exercises SetMaxConflicts: a zero budget after reset
// must let Solve run, and sat.ErrBudget must surface from a starved solve
// of a hard instance without poisoning the instance for a later unbounded
// call.
func TestInstanceBudget(t *testing.T) {
	// A small pigeonhole-flavored hard-ish instance: force an acyclic
	// tournament, then demand a cycle — UNSAT, needs real search.
	p := NewProblem(5)
	p.Declare("r", relation.New(5), relation.Full(5))
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			p.Fact(Or(In(i, j, Var("r")), In(j, i, Var("r"))))
		}
	}
	p.Fact(Acyclic(Var("r")))
	p.Fact(Not(Acyclic(Var("r"))))
	in, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	in.SetMaxConflicts(1)
	if _, ok, err := in.Solve(); err == nil && ok {
		t.Fatal("contradictory instance reported SAT under budget")
	}
	in.SetMaxConflicts(0)
	_, ok, err := in.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("contradictory instance reported SAT")
	}
}
