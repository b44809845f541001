package satgen

import (
	"fmt"

	"memsynth/internal/cat"
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/relation"
	"memsynth/internal/rml"
)

// dyn is one (possibly perturbed) execution view as the compiler sees it:
// the view supplies every static relation, and rf, co and fr are rml
// expressions over the free relations, mirroring how View.Reset derives
// them from the execution.
type dyn struct {
	v          *exec.View
	rf, co, fr rml.Expr
}

// progEncoding is the compiled-to-rml form of one program's query, plus
// the enumeration metadata extraction and ranking need.
type progEncoding struct {
	t            *litmus.Test
	prob         *rml.Problem
	base         dyn
	reads        []int   // read event IDs in event order
	writesByAddr [][]int // write event IDs per address in event order
}

// encodeExecutions declares the well-formed executions of t: free rf and co
// relations constrained exactly as exec.Enumerate generates them, and fr
// derived from both. Every query adds its axiom facts on top.
func encodeExecutions(t *litmus.Test) *progEncoding {
	n := len(t.Events)
	base := exec.NewStaticCtx(t, exec.NoPerturb).NewView()
	p := rml.NewProblem(n)

	enc := &progEncoding{t: t, prob: p, writesByAddr: make([][]int, t.NumAddrs())}
	for _, e := range t.Events {
		switch e.Kind {
		case litmus.KRead:
			enc.reads = append(enc.reads, e.ID)
		case litmus.KWrite:
			enc.writesByAddr[e.Addr] = append(enc.writesByAddr[e.Addr], e.ID)
		}
	}

	// rf ⊆ (W×R ∩ sameAddr), co ⊆ (W×W ∩ sameAddr) minus the diagonal.
	writes, reads, sameAddr := base.Writes(), base.Reads(), base.SameAddr()
	rfUpper := relation.Cross(n, writes, reads).Intersect(sameAddr)
	coUpper := relation.Cross(n, writes, writes).Intersect(sameAddr).Minus(relation.Identity(n))
	p.Declare("rf", relation.New(n), rfUpper)
	p.Declare("co", relation.New(n), coUpper)
	rf, co := rml.Var("rf"), rml.Var("co")

	// Well-formedness: each read has at most one rf source (none means the
	// initial value), and co is a strict total order per address —
	// irreflexive by its upper bound, total and antisymmetric pairwise,
	// transitive globally (the join cannot leave an address).
	for _, r := range enc.reads {
		ws := enc.writesByAddr[t.Events[r].Addr]
		for i := 0; i < len(ws); i++ {
			for j := i + 1; j < len(ws); j++ {
				p.Fact(rml.Not(rml.And(rml.In(ws[i], r, rf), rml.In(ws[j], r, rf))))
			}
		}
	}
	for _, ws := range enc.writesByAddr {
		for i := 0; i < len(ws); i++ {
			for j := i + 1; j < len(ws); j++ {
				p.Fact(rml.Or(rml.In(ws[i], ws[j], co), rml.In(ws[j], ws[i], co)))
				p.Fact(rml.Not(rml.And(rml.In(ws[i], ws[j], co), rml.In(ws[j], ws[i], co))))
			}
		}
	}
	p.Fact(rml.Subset(rml.Join(co, co), co))

	// fr is derived: a read is fr-before every same-address write except
	// its source and the source's co-predecessors (for an initial read the
	// subtracted join is empty, leaving all same-address writes) — the
	// relational form of View.Reset's fr construction. co is transitive, so
	// Reflexive(~co) is its reflexive-transitive closure without the
	// closure circuit.
	// Each derived relation is Define'd so its circuit — a join is n³
	// gates — is built once, not once per axiom occurrence across the
	// base view and every application.
	rwSame := relation.Cross(n, reads, writes).Intersect(sameAddr)
	fr := p.Define("fr", rml.Minus(rml.Const(rwSame),
		rml.Join(rml.Transpose(rf), rml.Reflexive(rml.Transpose(co)))))
	enc.base = dyn{v: base, rf: rf, co: co, fr: fr}
	return enc
}

// perturbed returns the view of application app (the idx-th) over the
// same free rf and co. Only instruction removal changes the dynamic
// relations; the rf/co/fr it yields mirror View.Reset under the same
// execution: restriction to the live events (restricting the transitive
// total co preserves both properties), with reads orphaned by a removed
// source write losing their fr edges too. Every other relaxation changes
// static relations only, which the view carries.
func (enc *progEncoding) perturbed(idx int, app exec.Perturb) dyn {
	va := exec.NewStaticCtx(enc.t, app).NewView()
	d := dyn{v: va, rf: enc.base.rf, co: enc.base.co, fr: enc.base.fr}
	if app.Kind != exec.PRI {
		return d
	}
	n, p := va.N(), enc.prob
	live := va.Live()
	liveC := rml.Const(relation.Cross(n, live, live))
	d.rf = p.Define(fmt.Sprintf("rf@%d", idx), rml.Intersect(enc.base.rf, liveC))
	d.co = p.Define(fmt.Sprintf("co@%d", idx), rml.Intersect(enc.base.co, liveC))
	frp := rml.Expr(rml.Const(relation.Cross(n, va.Reads(), va.Writes()).Intersect(va.SameAddr())))
	if enc.t.Events[app.Event].Kind == litmus.KWrite {
		fromRemoved := relation.New(n)
		fromRemoved.UnionRow(app.Event, relation.UniverseSet(n))
		orphanRows := rml.Join(
			rml.Transpose(rml.Intersect(enc.base.rf, rml.Const(fromRemoved))),
			rml.Const(relation.Full(n)))
		frp = rml.Minus(frp, orphanRows)
	}
	d.fr = p.Define(fmt.Sprintf("fr@%d", idx), rml.Minus(frp,
		rml.Join(rml.Transpose(d.rf), rml.Reflexive(rml.Transpose(d.co)))))
	return d
}

// encodeMinimality builds the per-program minimality query: the model's
// axioms violated on the base view (the outcome is forbidden) and all
// satisfied on every perturbed view (every strictly-weaker relaxation
// observes it). Models of the problem are exactly the minimal (program,
// outcome) witnesses.
func (g *Guide) encodeMinimality(t *litmus.Test) (*progEncoding, error) {
	enc := encodeExecutions(t)
	holds, err := g.axioms(enc.prob, enc.base, "")
	if err != nil {
		return nil, err
	}
	enc.prob.Fact(rml.Not(holds))
	for idx, app := range memmodel.Applications(g.m, t) {
		holds, err := g.axioms(enc.prob, enc.perturbed(idx, app), fmt.Sprintf("@%d", idx))
		if err != nil {
			return nil, err
		}
		enc.prob.Fact(holds)
	}
	return enc, nil
}

// encodeVerdict builds the query whose models are t's executions that the
// model allows (valid) or forbids.
func (g *Guide) encodeVerdict(t *litmus.Test, valid bool) (*progEncoding, error) {
	enc := encodeExecutions(t)
	holds, err := g.axioms(enc.prob, enc.base, "")
	if err != nil {
		return nil, err
	}
	if !valid {
		holds = rml.Not(holds)
	}
	enc.prob.Fact(holds)
	return enc, nil
}

// axioms compiles the conjunction of the definition's axioms on view d.
// Each relation-valued let is Define'd once per view, named with the
// view's tag; event sets are static, so they evaluate on the view.
func (g *Guide) axioms(p *rml.Problem, d dyn, tag string) (rml.Formula, error) {
	c := &viewCompiler{d: d, lets: make(map[string]term, len(g.def.Lets))}
	for _, l := range g.def.Lets {
		x, err := c.expr(l.Body)
		if err != nil {
			return nil, err
		}
		if !x.isSet {
			x.rel = p.Define(l.Name+tag, x.rel)
		}
		c.lets[l.Name] = x
	}
	fs := make([]rml.Formula, 0, len(g.def.Axioms))
	for _, a := range g.def.Axioms {
		x, err := c.expr(a.Body)
		if err != nil {
			return nil, err
		}
		switch a.Kind {
		case cat.AxAcyclic:
			fs = append(fs, rml.Acyclic(x.rel))
		case cat.AxIrreflexive:
			fs = append(fs, rml.Irreflexive(x.rel))
		default:
			fs = append(fs, rml.Empty(x.rel))
		}
	}
	return rml.And(fs...), nil
}

// term is one compiled cat expression: an event set, which is static and
// so evaluates on the view, or a relation as an rml expression.
type term struct {
	isSet bool
	set   relation.Set
	rel   rml.Expr
}

func relTerm(e rml.Expr) term { return term{rel: e} }

// viewCompiler translates cat expressions against one view. The operators
// map one to one onto rml's; cat.Compile has already type-checked them.
type viewCompiler struct {
	d    dyn
	lets map[string]term
}

func (c *viewCompiler) expr(e cat.Expr) (term, error) {
	n := c.d.v.N()
	switch e := e.(type) {
	case *cat.IdentExpr:
		return c.ident(e.Name)
	case *cat.LiftExpr:
		x, err := c.expr(e.X)
		return relTerm(rml.Const(relation.IdentityOn(n, x.set))), err
	case *cat.UnExpr:
		x, err := c.expr(e.X)
		if err != nil {
			return term{}, err
		}
		switch e.Op {
		case cat.OpClosure:
			return relTerm(rml.Closure(x.rel)), nil
		case cat.OpRefClosure:
			return relTerm(rml.RClosure(x.rel)), nil
		case cat.OpOpt:
			return relTerm(rml.Reflexive(x.rel)), nil
		case cat.OpInverse:
			return relTerm(rml.Transpose(x.rel)), nil
		}
	case *cat.BinExpr:
		l, err := c.expr(e.L)
		if err != nil {
			return term{}, err
		}
		r, err := c.expr(e.R)
		if err != nil {
			return term{}, err
		}
		if e.Op == cat.OpProd {
			return relTerm(rml.Const(relation.Cross(n, l.set, r.set))), nil
		}
		if l.isSet {
			switch e.Op {
			case cat.OpUnion:
				return term{isSet: true, set: l.set.Union(r.set)}, nil
			case cat.OpInter:
				return term{isSet: true, set: l.set.Intersect(r.set)}, nil
			case cat.OpDiff:
				return term{isSet: true, set: l.set.Minus(r.set)}, nil
			}
		}
		switch e.Op {
		case cat.OpUnion:
			return relTerm(rml.Union(l.rel, r.rel)), nil
		case cat.OpInter:
			return relTerm(rml.Intersect(l.rel, r.rel)), nil
		case cat.OpDiff:
			return relTerm(rml.Minus(l.rel, r.rel)), nil
		case cat.OpSeq:
			return relTerm(rml.Join(l.rel, r.rel)), nil
		}
	}
	return term{}, fmt.Errorf("satgen: no encoding for cat expression %T", e)
}

// ident resolves a name as cat does — let bindings, then predefined
// names — except that rf, co, fr and their external (e) and internal (i)
// restrictions are the view's rml expressions.
func (c *viewCompiler) ident(name string) (term, error) {
	if x, ok := c.lets[name]; ok {
		return x, nil
	}
	com := map[string]rml.Expr{"rf": c.d.rf, "co": c.d.co, "fr": c.d.fr}
	ext := rml.Const(c.d.v.Ext())
	switch name {
	case "rf", "co", "fr":
		return relTerm(com[name]), nil
	case "rfe", "coe", "fre":
		return relTerm(rml.Intersect(com[name[:2]], ext)), nil
	case "rfi", "coi", "fri":
		return relTerm(rml.Minus(com[name[:2]], ext)), nil
	case "scord":
		// Only sc-order models enumerate an sc order, and Supports
		// refuses them; without one the order is empty.
		return relTerm(rml.Const(relation.New(c.d.v.N()))), nil
	}
	rel, set, isSet, err := cat.EvalName(c.d.v, name)
	if err != nil {
		return term{}, err
	}
	if isSet {
		return term{isSet: true, set: set}, nil
	}
	return relTerm(rml.Const(rel)), nil
}
