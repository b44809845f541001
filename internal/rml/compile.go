package rml

import (
	"fmt"

	"memsynth/internal/sat"
)

// compiled is the Tseitin-compiled form of a Problem.
type compiled struct {
	p        *Problem
	solver   *sat.Solver
	vars     map[string][]sat.Lit // free-variable cells; constants for bound-fixed cells
	defCells map[string][]sat.Lit // lazily compiled Define'd relations
	defBusy  map[string]bool      // cycle guard for definitions in flight
	trueLit  sat.Lit
	falseLit sat.Lit
}

func (p *Problem) compile() (*compiled, error) {
	c := &compiled{
		p:        p,
		solver:   sat.New(),
		vars:     make(map[string][]sat.Lit),
		defCells: make(map[string][]sat.Lit),
		defBusy:  make(map[string]bool),
	}
	// A designated constant-true literal.
	c.trueLit = c.newLit()
	c.solver.AddClause(c.trueLit)
	c.falseLit = c.trueLit.Not()

	n := p.n
	for _, name := range p.order {
		b := p.varDecl[name]
		cells := make([]sat.Lit, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				switch {
				case b.lower.Has(i, j):
					cells[i*n+j] = c.trueLit
				case !b.upper.Has(i, j):
					cells[i*n+j] = c.falseLit
				default:
					cells[i*n+j] = c.newLit()
				}
			}
		}
		c.vars[name] = cells
	}
	for _, f := range p.facts {
		lit, err := c.formula(f, polPos)
		if err != nil {
			return nil, err
		}
		c.solver.AddClause(lit)
	}
	return c, nil
}

// polarity tracks how a subformula's truth value is used, so acyclicity can
// compile to a one-sided encoding: a fact is asserted positively, negation
// flips the polarity, and conjunction/disjunction preserve it. A formula
// that may be used in both directions (e.g. under an equivalence we do not
// build today) must fall back to the exact two-sided circuit.
type polarity int8

const (
	polPos  polarity = 1  // the returned literal is asserted (or implied) true
	polNeg  polarity = -1 // the returned literal is asserted (or implied) false
	polBoth polarity = 0
)

func (p polarity) flip() polarity { return -p }

func (c *compiled) newLit() sat.Lit {
	return sat.NewLit(c.solver.NewVar(), false)
}

func (c *compiled) isConst(l sat.Lit) (bool, bool) {
	switch l {
	case c.trueLit:
		return true, true
	case c.falseLit:
		return false, true
	}
	return false, false
}

// and returns a literal equivalent to a ∧ b.
func (c *compiled) and(a, b sat.Lit) sat.Lit {
	if v, ok := c.isConst(a); ok {
		if v {
			return b
		}
		return c.falseLit
	}
	if v, ok := c.isConst(b); ok {
		if v {
			return a
		}
		return c.falseLit
	}
	if a == b {
		return a
	}
	if a == b.Not() {
		return c.falseLit
	}
	out := c.newLit()
	c.solver.AddClause(out.Not(), a)
	c.solver.AddClause(out.Not(), b)
	c.solver.AddClause(out, a.Not(), b.Not())
	return out
}

// orN returns a literal equivalent to the disjunction of lits.
func (c *compiled) orN(lits []sat.Lit) sat.Lit {
	var reduced []sat.Lit
	for _, l := range lits {
		if v, ok := c.isConst(l); ok {
			if v {
				return c.trueLit
			}
			continue
		}
		reduced = append(reduced, l)
	}
	switch len(reduced) {
	case 0:
		return c.falseLit
	case 1:
		return reduced[0]
	}
	out := c.newLit()
	// out -> l1 ∨ ... ∨ ln
	clause := append([]sat.Lit{out.Not()}, reduced...)
	c.solver.AddClause(clause...)
	// li -> out
	for _, l := range reduced {
		c.solver.AddClause(out, l.Not())
	}
	return out
}

// andN returns a literal equivalent to the conjunction of lits.
func (c *compiled) andN(lits []sat.Lit) sat.Lit {
	neg := make([]sat.Lit, len(lits))
	for i, l := range lits {
		neg[i] = l.Not()
	}
	return c.orN(neg).Not()
}

// expr compiles a relational expression to its n*n cell literals.
func (c *compiled) expr(e Expr) ([]sat.Lit, error) {
	n := c.p.n
	switch e := e.(type) {
	case VarExpr:
		if cells, ok := c.vars[e.Name]; ok {
			return cells, nil
		}
		if cells, ok := c.defCells[e.Name]; ok {
			return cells, nil
		}
		if def, ok := c.p.defs[e.Name]; ok {
			if c.defBusy[e.Name] {
				return nil, fmt.Errorf("rml: definition cycle through %q", e.Name)
			}
			c.defBusy[e.Name] = true
			cells, err := c.expr(def)
			delete(c.defBusy, e.Name)
			if err != nil {
				return nil, err
			}
			c.defCells[e.Name] = cells
			return cells, nil
		}
		return nil, fmt.Errorf("rml: undeclared relation %q", e.Name)
	case ConstExpr:
		if e.Rel.N() != n {
			return nil, fmt.Errorf("rml: constant relation universe %d != %d", e.Rel.N(), n)
		}
		cells := make([]sat.Lit, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if e.Rel.Has(i, j) {
					cells[i*n+j] = c.trueLit
				} else {
					cells[i*n+j] = c.falseLit
				}
			}
		}
		return cells, nil
	case UnionExpr:
		a, err := c.expr(e.A)
		if err != nil {
			return nil, err
		}
		b, err := c.expr(e.B)
		if err != nil {
			return nil, err
		}
		out := make([]sat.Lit, n*n)
		for i := range out {
			out[i] = c.orN([]sat.Lit{a[i], b[i]})
		}
		return out, nil
	case IntersectExpr:
		a, err := c.expr(e.A)
		if err != nil {
			return nil, err
		}
		b, err := c.expr(e.B)
		if err != nil {
			return nil, err
		}
		out := make([]sat.Lit, n*n)
		for i := range out {
			out[i] = c.and(a[i], b[i])
		}
		return out, nil
	case MinusExpr:
		a, err := c.expr(e.A)
		if err != nil {
			return nil, err
		}
		b, err := c.expr(e.B)
		if err != nil {
			return nil, err
		}
		out := make([]sat.Lit, n*n)
		for i := range out {
			out[i] = c.and(a[i], b[i].Not())
		}
		return out, nil
	case JoinExpr:
		a, err := c.expr(e.A)
		if err != nil {
			return nil, err
		}
		b, err := c.expr(e.B)
		if err != nil {
			return nil, err
		}
		return c.join(a, b), nil
	case TransposeExpr:
		a, err := c.expr(e.A)
		if err != nil {
			return nil, err
		}
		out := make([]sat.Lit, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				out[i*n+j] = a[j*n+i]
			}
		}
		return out, nil
	case ClosureExpr:
		a, err := c.expr(e.A)
		if err != nil {
			return nil, err
		}
		return c.closure(a), nil
	case RClosureExpr:
		a, err := c.expr(e.A)
		if err != nil {
			return nil, err
		}
		cl := c.closure(a)
		out := append([]sat.Lit(nil), cl...)
		for i := 0; i < n; i++ {
			out[i*n+i] = c.trueLit
		}
		return out, nil
	case ReflexiveExpr:
		a, err := c.expr(e.A)
		if err != nil {
			return nil, err
		}
		out := append([]sat.Lit(nil), a...)
		for i := 0; i < n; i++ {
			out[i*n+i] = c.trueLit
		}
		return out, nil
	}
	return nil, fmt.Errorf("rml: unknown expression %T", e)
}

// join builds the relational join of two cell matrices.
func (c *compiled) join(a, b []sat.Lit) []sat.Lit {
	n := c.p.n
	out := make([]sat.Lit, n*n)
	terms := make([]sat.Lit, 0, n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			terms = terms[:0]
			for j := 0; j < n; j++ {
				terms = append(terms, c.and(a[i*n+j], b[j*n+k]))
			}
			out[i*n+k] = c.orN(terms)
		}
	}
	return out
}

// closure builds the transitive closure by iterated squaring:
// R_{k+1} = R_k ∪ R_k;R_k, ceil(log2(n)) times.
func (c *compiled) closure(a []sat.Lit) []sat.Lit {
	n := c.p.n
	cur := a
	for span := 1; span < n; span *= 2 {
		sq := c.join(cur, cur)
		next := make([]sat.Lit, n*n)
		for i := range next {
			next[i] = c.orN([]sat.Lit{cur[i], sq[i]})
		}
		cur = next
	}
	return cur
}

// formula compiles a formula to a single literal. pol records how the
// caller uses that literal; all cases except acyclicity compile exact
// two-sided circuits and ignore it.
func (c *compiled) formula(f Formula, pol polarity) (sat.Lit, error) {
	n := c.p.n
	switch f := f.(type) {
	case SubsetFormula:
		a, err := c.expr(f.A)
		if err != nil {
			return 0, err
		}
		b, err := c.expr(f.B)
		if err != nil {
			return 0, err
		}
		impls := make([]sat.Lit, 0, n*n)
		for i := range a {
			impls = append(impls, c.orN([]sat.Lit{a[i].Not(), b[i]}))
		}
		return c.andN(impls), nil
	case EmptyFormula:
		a, err := c.expr(f.A)
		if err != nil {
			return 0, err
		}
		negs := make([]sat.Lit, 0, n*n)
		for i := range a {
			negs = append(negs, a[i].Not())
		}
		return c.andN(negs), nil
	case IrreflexiveFormula:
		a, err := c.expr(f.A)
		if err != nil {
			return 0, err
		}
		negs := make([]sat.Lit, 0, n)
		for i := 0; i < n; i++ {
			negs = append(negs, a[i*n+i].Not())
		}
		return c.andN(negs), nil
	case AcyclicFormula:
		a, err := c.expr(f.A)
		if err != nil {
			return 0, err
		}
		switch pol {
		case polPos:
			return c.acyclicPos(a), nil
		case polNeg:
			return c.acyclicNeg(a), nil
		}
		return c.formula(IrreflexiveFormula{ClosureExpr{f.A}}, polBoth)
	case InFormula:
		if f.I < 0 || f.I >= n || f.J < 0 || f.J >= n {
			return 0, fmt.Errorf("rml: pair (%d,%d) outside universe", f.I, f.J)
		}
		a, err := c.expr(f.A)
		if err != nil {
			return 0, err
		}
		return a[f.I*n+f.J], nil
	case NotFormula:
		l, err := c.formula(f.F, pol.flip())
		if err != nil {
			return 0, err
		}
		return l.Not(), nil
	case AndFormula:
		lits := make([]sat.Lit, 0, len(f.Fs))
		for _, sub := range f.Fs {
			l, err := c.formula(sub, pol)
			if err != nil {
				return 0, err
			}
			lits = append(lits, l)
		}
		return c.andN(lits), nil
	case OrFormula:
		lits := make([]sat.Lit, 0, len(f.Fs))
		for _, sub := range f.Fs {
			l, err := c.formula(sub, pol)
			if err != nil {
				return 0, err
			}
			lits = append(lits, l)
		}
		return c.orN(lits), nil
	}
	return 0, fmt.Errorf("rml: unknown formula %T", f)
}

// activeNodes returns the atoms incident to a cell of the edge matrix that
// is not constant-false.
func (c *compiled) activeNodes(a []sat.Lit) []int {
	n := c.p.n
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v, ok := c.isConst(a[i*n+j]); ok && !v {
				continue
			}
			seen[i], seen[j] = true, true
		}
	}
	var nodes []int
	for i, s := range seen {
		if s {
			nodes = append(nodes, i)
		}
	}
	return nodes
}

// acyclicPos builds the one-sided topological-order encoding of
// acyclicity: the returned literal L satisfies L → acyclic(a). Fresh
// order variables ord(i,j) form a strict total order over the active
// nodes (antisymmetry by representation, transitivity by clauses over
// triples), and every present edge must agree with it. The reverse
// direction (acyclic → L) is not encoded, which is sound for positive
// occurrences: whenever the edge assignment is acyclic, some topological
// order makes L assignable, so satisfiability is preserved. This is
// linear-ish in nodes³ instead of the n²·log n gates of the closure
// circuit — the difference that makes satgen's per-program minimality
// queries cheap enough to replay whole synthesis runs.
func (c *compiled) acyclicPos(a []sat.Lit) sat.Lit {
	n := c.p.n
	nodes := c.activeNodes(a)
	if len(nodes) == 0 {
		return c.trueLit
	}
	L := c.newLit()
	// ord[i][j] (i<j in node-index space) ⇔ node i before node j.
	ord := make(map[[2]int]sat.Lit, len(nodes)*len(nodes)/2)
	ordLit := func(i, j int) sat.Lit { // i before j
		if i < j {
			return ord[[2]int{i, j}]
		}
		return ord[[2]int{j, i}].Not()
	}
	for ii, i := range nodes {
		for _, j := range nodes[ii+1:] {
			ord[[2]int{i, j}] = c.newLit()
		}
	}
	// Transitivity: before(i,j) ∧ before(j,k) → before(i,k).
	for _, i := range nodes {
		for _, j := range nodes {
			if j == i {
				continue
			}
			for _, k := range nodes {
				if k == i || k == j {
					continue
				}
				c.solver.AddClause(ordLit(i, j).Not(), ordLit(j, k).Not(), ordLit(i, k))
			}
		}
	}
	// Edges respect the order; self-loops contradict L outright.
	for _, i := range nodes {
		for _, j := range nodes {
			e := a[i*n+j]
			if v, ok := c.isConst(e); ok && !v {
				continue
			}
			if i == j {
				if v, ok := c.isConst(e); ok && v {
					c.solver.AddClause(L.Not())
				} else {
					c.solver.AddClause(L.Not(), e.Not())
				}
				continue
			}
			if v, ok := c.isConst(e); ok && v {
				c.solver.AddClause(L.Not(), ordLit(i, j))
			} else {
				c.solver.AddClause(L.Not(), e.Not(), ordLit(i, j))
			}
		}
	}
	return L
}

// acyclicNeg builds the one-sided cycle-certificate encoding: the returned
// literal L satisfies ¬L → cyclic(a). Selector variables mark a nonempty
// node set in which every selected node has a present edge to a selected
// node — such a set necessarily contains a cycle. Conversely a cyclic edge
// assignment lets the solver select the cycle, so ¬L stays assignable and
// satisfiability is preserved for negative occurrences (Not(Acyclic(...)),
// the "some execution is forbidden" half of minimality queries).
func (c *compiled) acyclicNeg(a []sat.Lit) sat.Lit {
	n := c.p.n
	nodes := c.activeNodes(a)
	if len(nodes) == 0 {
		// No possible edges: acyclic holds; ¬L must be unsatisfiable.
		return c.trueLit
	}
	L := c.newLit()
	sel := make(map[int]sat.Lit, len(nodes))
	for _, i := range nodes {
		sel[i] = c.newLit()
	}
	// ¬L → some node selected.
	clause := []sat.Lit{L}
	for _, i := range nodes {
		clause = append(clause, sel[i])
	}
	c.solver.AddClause(clause...)
	// ¬L ∧ sel(i) → edge from i to some selected node.
	for _, i := range nodes {
		clause = clause[:0]
		clause = append(clause, L, sel[i].Not())
		for _, j := range nodes {
			e := a[i*n+j]
			if v, ok := c.isConst(e); ok && !v {
				continue
			}
			clause = append(clause, c.and(e, sel[j]))
		}
		c.solver.AddClause(clause...)
	}
	return L
}

// extract reads the current model into concrete relations.
func (c *compiled) extract() Model {
	n := c.p.n
	model := c.solver.Model()
	out := make(Model, len(c.vars))
	for name, cells := range c.vars {
		r := c.p.varDecl[name].lower.Clone()
		for idx, lit := range cells {
			if v, ok := c.isConst(lit); ok {
				if v {
					r.Add(idx/n, idx%n)
				}
				continue
			}
			val := model[lit.Var()]
			if lit.Neg() {
				val = !val
			}
			if val {
				r.Add(idx/n, idx%n)
			}
		}
		out[name] = r
	}
	return out
}
