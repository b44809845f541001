// Package rml is a bounded relational model finder in the spirit of
// Alloy/Kodkod, the front end the paper uses (§4): relational constraints
// over a finite universe are compiled, via Tseitin transformation, into CNF
// for the CDCL solver of package sat, and satisfying models are enumerated
// with blocking clauses.
//
// The language covers what axiomatic memory models need — union,
// intersection, difference, join, transpose, transitive closure,
// domain/range restriction via partial-identity constants — plus the
// acyclicity and irreflexivity predicates axioms are phrased with. Free
// relation variables play the role of Alloy's unknown relations (rf, co);
// constant relations encode the static structure (po, addresses).
//
// The production synthesis path of this repository is the explicit
// enumerator of package synth; rml reproduces the paper's solver pipeline.
// Package satgen compiles cat model definitions into rml problems and
// cross-validates the enumerator with them, as Alloy cross-checks hand
// analyses in the paper.
package rml

import (
	"fmt"

	"memsynth/internal/relation"
	"memsynth/internal/sat"
)

// Expr is a relational expression over a universe fixed by the Problem.
type Expr interface {
	exprNode()
}

type (
	// VarExpr references a free relation variable by name.
	VarExpr struct{ Name string }
	// ConstExpr embeds a constant relation.
	ConstExpr struct{ Rel relation.Rel }
	// UnionExpr is a ∪ b.
	UnionExpr struct{ A, B Expr }
	// IntersectExpr is a ∩ b.
	IntersectExpr struct{ A, B Expr }
	// MinusExpr is a \ b.
	MinusExpr struct{ A, B Expr }
	// JoinExpr is the relational join a;b.
	JoinExpr struct{ A, B Expr }
	// TransposeExpr is ~a.
	TransposeExpr struct{ A Expr }
	// ClosureExpr is the transitive closure ^a.
	ClosureExpr struct{ A Expr }
	// RClosureExpr is the reflexive transitive closure *a.
	RClosureExpr struct{ A Expr }
	// ReflexiveExpr is a ∪ iden (the full diagonal, matching RClosureExpr's
	// treatment): the cheap reflexive closure for expressions already known
	// to be transitive, avoiding the iterated-squaring closure circuit.
	ReflexiveExpr struct{ A Expr }
)

func (VarExpr) exprNode()       {}
func (ConstExpr) exprNode()     {}
func (UnionExpr) exprNode()     {}
func (IntersectExpr) exprNode() {}
func (MinusExpr) exprNode()     {}
func (JoinExpr) exprNode()      {}
func (TransposeExpr) exprNode() {}
func (ClosureExpr) exprNode()   {}
func (RClosureExpr) exprNode()  {}
func (ReflexiveExpr) exprNode() {}

// Convenience constructors.

// Var references the named free relation.
func Var(name string) Expr { return VarExpr{name} }

// Const embeds a fixed relation.
func Const(r relation.Rel) Expr { return ConstExpr{r} }

// Union returns the union of the given expressions.
func Union(xs ...Expr) Expr {
	if len(xs) == 0 {
		panic("rml: empty union")
	}
	e := xs[0]
	for _, x := range xs[1:] {
		e = UnionExpr{e, x}
	}
	return e
}

// Intersect returns a ∩ b.
func Intersect(a, b Expr) Expr { return IntersectExpr{a, b} }

// Minus returns a \ b.
func Minus(a, b Expr) Expr { return MinusExpr{a, b} }

// Join returns a;b.
func Join(a, b Expr) Expr { return JoinExpr{a, b} }

// Transpose returns ~a.
func Transpose(a Expr) Expr { return TransposeExpr{a} }

// Closure returns ^a.
func Closure(a Expr) Expr { return ClosureExpr{a} }

// RClosure returns *a.
func RClosure(a Expr) Expr { return RClosureExpr{a} }

// Reflexive returns a ∪ iden. For a transitive a it equals RClosure(a) but
// compiles without the closure circuit.
func Reflexive(a Expr) Expr { return ReflexiveExpr{a} }

// Formula is a boolean constraint over relational expressions.
type Formula interface {
	formulaNode()
}

type (
	// SubsetFormula asserts a ⊆ b.
	SubsetFormula struct{ A, B Expr }
	// EmptyFormula asserts a = ∅.
	EmptyFormula struct{ A Expr }
	// IrreflexiveFormula asserts no (i,i) ∈ a.
	IrreflexiveFormula struct{ A Expr }
	// AcyclicFormula asserts a has no cycles.
	AcyclicFormula struct{ A Expr }
	// InFormula asserts (I, J) ∈ a.
	InFormula struct {
		I, J int
		A    Expr
	}
	// NotFormula negates a formula.
	NotFormula struct{ F Formula }
	// AndFormula is the conjunction of formulas.
	AndFormula struct{ Fs []Formula }
	// OrFormula is the disjunction of formulas.
	OrFormula struct{ Fs []Formula }
)

func (SubsetFormula) formulaNode()      {}
func (EmptyFormula) formulaNode()       {}
func (IrreflexiveFormula) formulaNode() {}
func (AcyclicFormula) formulaNode()     {}
func (InFormula) formulaNode()          {}
func (NotFormula) formulaNode()         {}
func (AndFormula) formulaNode()         {}
func (OrFormula) formulaNode()          {}

// Subset asserts a ⊆ b.
func Subset(a, b Expr) Formula { return SubsetFormula{a, b} }

// Empty asserts a = ∅.
func Empty(a Expr) Formula { return EmptyFormula{a} }

// Irreflexive asserts a ∩ iden = ∅.
func Irreflexive(a Expr) Formula { return IrreflexiveFormula{a} }

// Acyclic asserts ^a is irreflexive.
func Acyclic(a Expr) Formula { return AcyclicFormula{a} }

// In asserts the pair (i, j) is in a.
func In(i, j int, a Expr) Formula { return InFormula{i, j, a} }

// Not negates f.
func Not(f Formula) Formula { return NotFormula{f} }

// And conjoins formulas.
func And(fs ...Formula) Formula { return AndFormula{fs} }

// Or disjoins formulas.
func Or(fs ...Formula) Formula { return OrFormula{fs} }

// Problem is a bounded relational satisfaction problem.
type Problem struct {
	n       int
	varDecl map[string]varBounds
	order   []string
	facts   []Formula
	defs    map[string]Expr
}

type varBounds struct {
	lower, upper relation.Rel
}

// NewProblem creates a problem over a universe of n atoms.
func NewProblem(n int) *Problem {
	if n <= 0 || n > relation.MaxUniverse {
		panic(fmt.Sprintf("rml: universe size %d out of range", n))
	}
	return &Problem{n: n, varDecl: make(map[string]varBounds), defs: make(map[string]Expr)}
}

// N returns the universe size.
func (p *Problem) N() int { return p.n }

// Declare introduces a free relation variable with bounds: every pair of
// lower is forced in, and only pairs of upper may appear (Kodkod-style
// bounds). Pass relation.New(n) and relation.Full(n) for an unconstrained
// relation.
func (p *Problem) Declare(name string, lower, upper relation.Rel) {
	if _, dup := p.varDecl[name]; dup {
		panic(fmt.Sprintf("rml: duplicate declaration of %q", name))
	}
	if _, dup := p.defs[name]; dup {
		panic(fmt.Sprintf("rml: %q already defined", name))
	}
	if lower.N() != p.n || upper.N() != p.n {
		panic("rml: bounds universe mismatch")
	}
	if !lower.SubsetOf(upper) {
		panic(fmt.Sprintf("rml: lower bound of %q not within upper bound", name))
	}
	p.varDecl[name] = varBounds{lower: lower, upper: upper}
	p.order = append(p.order, name)
}

// Fact adds a constraint every model must satisfy.
func (p *Problem) Fact(f Formula) { p.facts = append(p.facts, f) }

// Define names a derived relation: Var(name) then refers to e, and the
// compiler builds e's circuit once no matter how many facts mention the
// name. Without a definition, an expression shared across facts is
// re-compiled at every occurrence — for a join that is n³ fresh gates per
// mention, the dominant compile cost of per-program minimality queries.
// Defined relations are not free variables: they never appear in models
// and blocking clauses, and definitions may reference declared variables
// and previously defined names.
func (p *Problem) Define(name string, e Expr) Expr {
	if _, dup := p.varDecl[name]; dup {
		panic(fmt.Sprintf("rml: duplicate declaration of %q", name))
	}
	if _, dup := p.defs[name]; dup {
		panic(fmt.Sprintf("rml: %q already defined", name))
	}
	p.defs[name] = e
	return VarExpr{name}
}

// Model is one satisfying assignment of the free relation variables.
type Model map[string]relation.Rel

// Instance is a compiled Problem holding live solver state, the handle for
// incremental model enumeration: Solve / Block / Solve reuses everything
// the CDCL solver learned between calls instead of recompiling.
type Instance struct {
	c *compiled
}

// Compile translates the problem to CNF once and returns the reusable
// instance. Facts added to the Problem after Compile are not seen by the
// instance.
func (p *Problem) Compile() (*Instance, error) {
	c, err := p.compile()
	if err != nil {
		return nil, err
	}
	return &Instance{c: c}, nil
}

// SetMaxConflicts bounds each subsequent Solve call to k conflicts
// (0 disables the budget); an exhausted budget surfaces as sat.ErrBudget.
func (in *Instance) SetMaxConflicts(k int64) { in.c.solver.MaxConflicts = k }

// Solve returns whether the instance (with every blocking clause added so
// far) is still satisfiable and, if so, one model.
func (in *Instance) Solve() (Model, bool, error) {
	ok, err := in.c.solver.Solve()
	if err != nil || !ok {
		return nil, false, err
	}
	return in.c.extract(), true, nil
}

// Block adds a blocking clause excluding m's assignment of the free
// variable cells, so the next Solve finds a different model. It returns
// false when no model can differ (no free cells, or the clause is
// immediately contradictory) — enumeration is complete.
func (in *Instance) Block(m Model) bool {
	s, p := in.c, in.c.p
	var block []sat.Lit
	for name, cells := range s.vars {
		rel := m[name]
		for idx, lit := range cells {
			if _, fixed := s.isConst(lit); fixed {
				continue // fixed by bounds
			}
			i, j := idx/p.n, idx%p.n
			if rel.Has(i, j) {
				block = append(block, lit.Not())
			} else {
				block = append(block, lit)
			}
		}
	}
	if len(block) == 0 {
		return false // no free cells: unique model
	}
	return s.solver.AddClause(block...)
}

// Solve returns whether the problem is satisfiable and, if so, one model.
func (p *Problem) Solve() (Model, bool, error) {
	in, err := p.Compile()
	if err != nil {
		return nil, false, err
	}
	return in.Solve()
}

// EnumerateModels visits every model of the problem (deduplicated over the
// free variables) until visit returns false. It returns the number of
// models visited.
func (p *Problem) EnumerateModels(visit func(Model) bool) (int, error) {
	in, err := p.Compile()
	if err != nil {
		return 0, err
	}
	count := 0
	for {
		m, ok, err := in.Solve()
		if err != nil || !ok {
			return count, err
		}
		count++
		if !visit(m) {
			return count, nil
		}
		if !in.Block(m) {
			return count, nil
		}
	}
}
