package cat

import (
	"sort"
	"strings"

	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/relation"
)

// typ is the type of an expression: an event set or a binary relation.
type typ uint8

const (
	typSet typ = iota
	typRel
)

func (t typ) String() string {
	if t == typSet {
		return "set"
	}
	return "relation"
}

// env is the per-view evaluation state: let-binding results are computed
// lazily, once, and shared across all axioms evaluated against one view
// (the whole env is memoized through exec.View.Memo, so compiled models
// pay no repeated-closure cost inside the synthesis inner loop).
type env struct {
	v    *exec.View
	done []bool
	rels []relation.Rel
	sets []relation.Set
}

// value is a typed, compiled expression evaluator.
type value struct {
	t   typ
	rel func(e *env) relation.Rel // t == typRel
	set func(e *env) relation.Set // t == typSet
}

// axiom is one compiled axiom declaration.
type axiom struct {
	kind AxiomKind
	name string
	body value
}

// program is the fully resolved and compiled form of a File: everything
// needed to implement memmodel.Model.
type program struct {
	name   string
	lets   []value
	axioms []axiom
	vocab  memmodel.Vocab
	relax  memmodel.RelaxSpec
}

// resolver carries symbol-table state while walking the AST.
type resolver struct {
	file     *File
	letIndex map[string]int
	prog     *program
}

// resolve typechecks and compiles a parsed file.
func resolve(f *File) (*program, error) {
	r := &resolver{file: f, letIndex: make(map[string]int), prog: &program{name: f.Name}}
	if err := validName(f.Name, f.NamePos, "model name"); err != nil {
		return nil, err
	}
	for _, l := range f.Lets {
		if err := validName(l.Name, l.Pos, "let name"); err != nil {
			return nil, err
		}
		if _, dup := r.letIndex[l.Name]; dup {
			return nil, errf(l.Pos, "duplicate definition of %q", l.Name)
		}
		if _, isBuiltin := builtins[l.Name]; isBuiltin {
			return nil, errf(l.Pos, "let %q shadows a builtin", l.Name)
		}
		v, err := r.expr(l.Body)
		if err != nil {
			return nil, err
		}
		// Bind after resolving the body: forward and self references fail
		// as undefined names, so bindings are strictly top-down.
		r.letIndex[l.Name] = len(r.prog.lets)
		r.prog.lets = append(r.prog.lets, v)
	}

	if len(f.Axioms) == 0 {
		return nil, errf(f.NamePos, "model %q declares no axioms", f.Name)
	}
	seen := make(map[string]Pos)
	for _, a := range f.Axioms {
		if err := validName(a.Name, a.Pos, "axiom name"); err != nil {
			return nil, err
		}
		if a.Name == "union" {
			return nil, errf(a.Pos, "axiom name %q is reserved for the union suite", a.Name)
		}
		if prev, dup := seen[a.Name]; dup {
			return nil, errf(a.Pos, "duplicate axiom %q (first declared at line %s)", a.Name, prev)
		}
		seen[a.Name] = a.Pos
		body, err := r.expr(a.Body)
		if err != nil {
			return nil, err
		}
		if body.t != typRel {
			return nil, errf(a.Body.pos(), "%s axiom %q needs a relation, got a set", a.Kind, a.Name)
		}
		r.prog.axioms = append(r.prog.axioms, axiom{kind: a.Kind, name: a.Name, body: body})
	}

	if err := r.vocabulary(); err != nil {
		return nil, err
	}
	if err := r.relaxations(); err != nil {
		return nil, err
	}
	return r.prog, nil
}

func validName(name string, pos Pos, what string) error {
	if name == "" {
		return errf(pos, "empty %s", what)
	}
	if strings.ContainsAny(name, ".") {
		return errf(pos, "%s %q may not contain '.'", what, name)
	}
	if name[0] >= '0' && name[0] <= '9' {
		return errf(pos, "%s %q may not start with a digit", what, name)
	}
	return nil
}

// --- expressions ---

func (r *resolver) expr(e Expr) (value, error) {
	switch e := e.(type) {
	case *IdentExpr:
		return r.ident(e)
	case *LiftExpr:
		x, err := r.expr(e.X)
		if err != nil {
			return value{}, err
		}
		if x.t != typSet {
			return value{}, errf(e.X.pos(), "[...] lifts a set to the identity relation on it, got a relation")
		}
		return relValue(func(ev *env) relation.Rel {
			return relation.IdentityOn(ev.v.N(), x.set(ev))
		}), nil
	case *UnExpr:
		x, err := r.expr(e.X)
		if err != nil {
			return value{}, err
		}
		if x.t != typRel {
			return value{}, errf(e.X.pos(), "operator '%v' applies to relations, got a set", e.Op)
		}
		f := x.rel
		switch e.Op {
		case OpClosure:
			return relValue(func(ev *env) relation.Rel { return f(ev).Closure() }), nil
		case OpRefClosure:
			return relValue(func(ev *env) relation.Rel { return f(ev).ReflexiveClosure() }), nil
		case OpOpt:
			return relValue(func(ev *env) relation.Rel { return f(ev).OptStep() }), nil
		case OpInverse:
			return relValue(func(ev *env) relation.Rel { return f(ev).Transpose() }), nil
		}
		return value{}, errf(e.pos(), "unknown postfix operator")
	case *BinExpr:
		l, err := r.expr(e.L)
		if err != nil {
			return value{}, err
		}
		rv, err := r.expr(e.R)
		if err != nil {
			return value{}, err
		}
		return r.binary(e, l, rv)
	}
	return value{}, errf(e.pos(), "unknown expression node")
}

func (r *resolver) binary(e *BinExpr, l, rv value) (value, error) {
	switch e.Op {
	case OpUnion, OpInter, OpDiff:
		if l.t != rv.t {
			return value{}, errf(e.Pos_, "operator '%v' needs operands of one type, got %v and %v", e.Op, l.t, rv.t)
		}
		if l.t == typSet {
			ls, rs := l.set, rv.set
			switch e.Op {
			case OpUnion:
				return setValue(func(ev *env) relation.Set { return ls(ev).Union(rs(ev)) }), nil
			case OpInter:
				return setValue(func(ev *env) relation.Set { return ls(ev).Intersect(rs(ev)) }), nil
			default:
				return setValue(func(ev *env) relation.Set { return ls(ev).Minus(rs(ev)) }), nil
			}
		}
		lr, rr := l.rel, rv.rel
		switch e.Op {
		case OpUnion:
			return relValue(func(ev *env) relation.Rel { return lr(ev).Union(rr(ev)) }), nil
		case OpInter:
			return relValue(func(ev *env) relation.Rel { return lr(ev).Intersect(rr(ev)) }), nil
		default:
			return relValue(func(ev *env) relation.Rel { return lr(ev).Minus(rr(ev)) }), nil
		}
	case OpSeq:
		if l.t != typRel || rv.t != typRel {
			return value{}, errf(e.Pos_, "operator ';' joins relations (lift a set with [S])")
		}
		lr, rr := l.rel, rv.rel
		return relValue(func(ev *env) relation.Rel { return lr(ev).Join(rr(ev)) }), nil
	case OpProd:
		if l.t != typSet || rv.t != typSet {
			return value{}, errf(e.Pos_, "operator '*' is the product of two sets, got %v and %v", l.t, rv.t)
		}
		ls, rs := l.set, rv.set
		return relValue(func(ev *env) relation.Rel {
			return relation.Cross(ev.v.N(), ls(ev), rs(ev))
		}), nil
	}
	return value{}, errf(e.Pos_, "unknown binary operator")
}

func relValue(f func(*env) relation.Rel) value { return value{t: typRel, rel: f} }
func setValue(f func(*env) relation.Set) value { return value{t: typSet, set: f} }

// ident resolves a name: let bindings first (earlier ones only), then
// builtins, then the dotted event-set forms (R.acq, F.mfence, ...).
func (r *resolver) ident(e *IdentExpr) (value, error) {
	if idx, ok := r.letIndex[e.Name]; ok {
		t := r.prog.lets[idx].t
		if t == typRel {
			return relValue(func(ev *env) relation.Rel {
				ev.force(r.prog, idx)
				return ev.rels[idx]
			}), nil
		}
		return setValue(func(ev *env) relation.Set {
			ev.force(r.prog, idx)
			return ev.sets[idx]
		}), nil
	}
	if b, ok := builtins[e.Name]; ok {
		return b, nil
	}
	if v, ok, err := dottedSet(e.Name, e.Pos_); ok || err != nil {
		return v, err
	}
	return value{}, errf(e.Pos_, "undefined name %q", e.Name)
}

// force computes let binding idx into the env cache.
func (ev *env) force(p *program, idx int) {
	if ev.done[idx] {
		return
	}
	ev.done[idx] = true
	if p.lets[idx].t == typRel {
		ev.rels[idx] = p.lets[idx].rel(ev)
	} else {
		ev.sets[idx] = p.lets[idx].set(ev)
	}
}

// Builtin reports whether name is a predefined relation or event-set name
// of the definition language (analysis tools use this to distinguish
// shadowing from ordinary duplicate bindings).
func Builtin(name string) bool {
	_, ok := builtins[name]
	return ok
}

// EvalName evaluates a predefined name — a builtin event set or relation,
// or a dotted event set such as R.acq — against view v, by the same
// definitions a compiled model's axioms use. isSet reports whether the
// value is the set or the relation. Execution-dependent names (rf, co, fr,
// their e/i restrictions, scord) read v's current execution. Any other
// name is an error.
func EvalName(v *exec.View, name string) (rel relation.Rel, set relation.Set, isSet bool, err error) {
	b, ok := builtins[name]
	if !ok {
		if b, ok, err = dottedSet(name, Pos{}); err != nil {
			return relation.Rel{}, 0, false, err
		}
		if !ok {
			return relation.Rel{}, 0, false, errf(Pos{}, "undefined name %q", name)
		}
	}
	ev := &env{v: v}
	if b.t == typSet {
		return relation.Rel{}, b.set(ev), true, nil
	}
	return b.rel(ev), 0, false, nil
}

// builtins maps the base relations and event sets onto exec.View.
var builtins = map[string]value{
	// Event sets.
	"R": setValue(func(ev *env) relation.Set { return ev.v.Reads() }),
	"W": setValue(func(ev *env) relation.Set { return ev.v.Writes() }),
	"F": setValue(func(ev *env) relation.Set { return ev.v.Fences() }),
	"M": setValue(func(ev *env) relation.Set { return ev.v.Reads().Union(ev.v.Writes()) }),
	"_": setValue(func(ev *env) relation.Set { return ev.v.Live() }),

	// Base relations.
	"po":     relValue(func(ev *env) relation.Rel { return ev.v.PO() }),
	"po-loc": relValue(func(ev *env) relation.Rel { return ev.v.POLoc() }),
	"rf":     relValue(func(ev *env) relation.Rel { return ev.v.RF() }),
	"rfe":    relValue(func(ev *env) relation.Rel { return ev.v.RFE() }),
	"rfi":    relValue(func(ev *env) relation.Rel { return ev.v.RFI() }),
	"co":     relValue(func(ev *env) relation.Rel { return ev.v.CO() }),
	"coe":    relValue(func(ev *env) relation.Rel { return ev.v.COE() }),
	"coi":    relValue(func(ev *env) relation.Rel { return ev.v.COI() }),
	"fr":     relValue(func(ev *env) relation.Rel { return ev.v.FR() }),
	"fre":    relValue(func(ev *env) relation.Rel { return ev.v.FRE() }),
	"fri":    relValue(func(ev *env) relation.Rel { return ev.v.FRI() }),
	"rmw":    relValue(func(ev *env) relation.Rel { return ev.v.RMW() }),
	"ext":    relValue(func(ev *env) relation.Rel { return ev.v.Ext() }),
	"loc":    relValue(func(ev *env) relation.Rel { return ev.v.SameAddr() }),
	"dep":    relValue(func(ev *env) relation.Rel { return ev.v.DepAll() }),
	"addr":   relValue(func(ev *env) relation.Rel { return ev.v.Dep(litmus.DepAddr) }),
	"data":   relValue(func(ev *env) relation.Rel { return ev.v.Dep(litmus.DepData) }),
	"ctrl":   relValue(func(ev *env) relation.Rel { return ev.v.Dep(litmus.DepCtrl) }),
	"id":     relValue(func(ev *env) relation.Rel { return relation.IdentityOn(ev.v.N(), ev.v.Live()) }),
	"0":      relValue(func(ev *env) relation.Rel { return relation.New(ev.v.N()) }),
	// int: same-thread pairs of distinct live events (the complement of
	// ext within the live universe).
	"int": relValue(func(ev *env) relation.Rel {
		live := ev.v.Live()
		full := relation.Cross(ev.v.N(), live, live)
		return full.Minus(ev.v.Ext()).Minus(relation.IdentityOn(ev.v.N(), live))
	}),
	// scord: the total order over live sc fences of sc-order models
	// (exec.View.SCRel); empty for models without sc-order.
	"scord": relValue(func(ev *env) relation.Rel { return ev.v.SCRel() }),
	// scope-compat: pairs whose synchronization scopes mutually cover
	// each other's thread (scoped models).
	"scope-compat": relValue(func(ev *env) relation.Rel { return ev.v.ScopeCompatible() }),
}

// orderNames maps the textual order annotations (litmus.Order.String) to
// their values.
var orderNames = map[string]litmus.Order{
	"rlx": litmus.OPlain, "con": litmus.OConsume, "acq": litmus.OAcquire,
	"rel": litmus.ORelease, "acqrel": litmus.OAcqRel, "sc": litmus.OSC,
}

// fenceNames maps the textual fence kinds (litmus.FenceKind.String) to
// their values.
var fenceNames = map[string]litmus.FenceKind{
	"mfence": litmus.FMFence, "lwsync": litmus.FLwSync, "sync": litmus.FSync,
	"isync": litmus.FISync, "acqrel": litmus.FAcqRel, "sc": litmus.FSC,
	"acq": litmus.FAcq, "rel": litmus.FRel,
}

// scopeNames maps the textual scopes to their values.
var scopeNames = map[string]litmus.Scope{
	"wg": litmus.ScopeWG, "sys": litmus.ScopeSys,
}

// dottedSet resolves the filtered event-set forms: `R.acq` (live reads
// whose effective order is acq), `W.rel`, `M.sc` (reads or writes), and
// `F.sync` (live fences of that effective kind). Effective means the
// filters honor DMO/DF perturbations through the view.
func dottedSet(name string, pos Pos) (value, bool, error) {
	dot := strings.IndexByte(name, '.')
	if dot < 0 {
		return value{}, false, nil
	}
	base, suffix := name[:dot], name[dot+1:]
	switch base {
	case "R", "W", "M":
		o, ok := orderNames[suffix]
		if !ok {
			return value{}, false, errf(pos, "unknown memory order %q in %q (want %s)", suffix, name, keyList(orderNames))
		}
		return setValue(func(ev *env) relation.Set {
			var class relation.Set
			switch base {
			case "R":
				class = ev.v.Reads()
			case "W":
				class = ev.v.Writes()
			default:
				class = ev.v.Reads().Union(ev.v.Writes())
			}
			return ev.v.Where(func(id int) bool {
				return class.Has(id) && ev.v.OrderOf(id) == o
			})
		}), true, nil
	case "F":
		k, ok := fenceNames[suffix]
		if !ok {
			return value{}, false, errf(pos, "unknown fence kind %q in %q (want %s)", suffix, name, keyList(fenceNames))
		}
		return setValue(func(ev *env) relation.Set { return ev.v.FencesOfKind(k) }), true, nil
	}
	return value{}, false, errf(pos, "undefined name %q (dotted sets start with R, W, M, or F)", name)
}

func keyList[V any](m map[string]V) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

// --- vocabulary ---

// resolveOp maps one OpSpec onto a litmus.Op template.
func resolveOp(spec OpSpec) (litmus.Op, error) {
	base, suffix := spec.Raw, ""
	if dot := strings.IndexByte(spec.Raw, '.'); dot >= 0 {
		base, suffix = spec.Raw[:dot], spec.Raw[dot+1:]
	}
	var op litmus.Op
	switch base {
	case "R", "W":
		order := litmus.OPlain
		if suffix != "" {
			o, ok := orderNames[suffix]
			if !ok {
				return litmus.Op{}, errf(spec.Pos, "unknown memory order %q in %q (want %s)", suffix, spec.Raw, keyList(orderNames))
			}
			order = o
		}
		if base == "R" {
			op = litmus.R(0).WithOrder(order)
		} else {
			op = litmus.W(0).WithOrder(order)
		}
	case "F":
		if suffix == "" {
			return litmus.Op{}, errf(spec.Pos, "fence op needs a kind: F.%s", keyList(fenceNames))
		}
		k, ok := fenceNames[suffix]
		if !ok {
			return litmus.Op{}, errf(spec.Pos, "unknown fence kind %q in %q (want %s)", suffix, spec.Raw, keyList(fenceNames))
		}
		op = litmus.F(k)
	default:
		return litmus.Op{}, errf(spec.Pos, "unknown instruction %q (want R, W, or F with optional .order/.kind)", spec.Raw)
	}
	if spec.Scope != "" {
		s, ok := scopeNames[spec.Scope]
		if !ok {
			return litmus.Op{}, errf(spec.ScopePos, "unknown scope %q (want wg or sys)", spec.Scope)
		}
		op = op.WithScope(s)
	}
	return op, nil
}

func (r *resolver) vocabulary() error {
	f := r.file
	if len(f.Ops) == 0 {
		return errf(f.NamePos, "model %q declares no ops (the synthesis vocabulary is empty)", f.Name)
	}
	for _, spec := range f.Ops {
		op, err := resolveOp(spec)
		if err != nil {
			return err
		}
		r.prog.vocab.Ops = append(r.prog.vocab.Ops, op)
	}
	for _, pair := range f.RMWs {
		rop, err := resolveOp(pair[0])
		if err != nil {
			return err
		}
		wop, err := resolveOp(pair[1])
		if err != nil {
			return err
		}
		if rop.Kind() != litmus.KRead || wop.Kind() != litmus.KWrite {
			return errf(pair[0].Pos, "rmw pair must be a read then a write, got %q %q", pair[0].Raw, pair[1].Raw)
		}
		r.prog.vocab.RMWOps = append(r.prog.vocab.RMWOps, [2]litmus.Op{rop, wop})
	}
	depNames := map[string]litmus.DepType{"addr": litmus.DepAddr, "data": litmus.DepData, "ctrl": litmus.DepCtrl}
	seenDep := make(map[litmus.DepType]bool)
	for _, ref := range f.Deps {
		d, ok := depNames[ref.Name]
		if !ok {
			return errf(ref.Pos, "unknown dependency type %q (want addr, data, or ctrl)", ref.Name)
		}
		if seenDep[d] {
			return errf(ref.Pos, "duplicate dependency type %q", ref.Name)
		}
		seenDep[d] = true
		r.prog.vocab.DepTypes = append(r.prog.vocab.DepTypes, d)
	}
	seenScope := make(map[litmus.Scope]bool)
	for _, ref := range f.Scopes {
		s, ok := scopeNames[ref.Name]
		if !ok {
			return errf(ref.Pos, "unknown scope %q (want wg or sys)", ref.Name)
		}
		if seenScope[s] {
			return errf(ref.Pos, "duplicate scope %q", ref.Name)
		}
		seenScope[s] = true
		r.prog.vocab.Scopes = append(r.prog.vocab.Scopes, s)
	}
	r.prog.vocab.UsesSC = f.UsesSC
	return nil
}

// --- relaxations ---

// orderKey keys the DMO ladder by event kind and current order.
type orderKey struct {
	kind  litmus.Kind
	order litmus.Order
}

func (r *resolver) relaxations() error {
	f := r.file
	orderLadder := make(map[orderKey][]litmus.Order)
	fenceLadder := make(map[litmus.FenceKind][]litmus.FenceKind)
	scopeLadder := make(map[litmus.Scope][]litmus.Scope)

	for _, d := range f.Demotes {
		if d.From.Raw == "" { // scope demotion: demote @sys -> @wg
			from, ok := scopeNames[d.From.Scope]
			if !ok {
				return errf(d.From.ScopePos, "unknown scope %q (want wg or sys)", d.From.Scope)
			}
			for _, to := range d.To {
				if to.Raw != "" {
					return errf(to.Pos, "scope demotion target must be @wg or @sys")
				}
				s, ok := scopeNames[to.Scope]
				if !ok {
					return errf(to.ScopePos, "unknown scope %q (want wg or sys)", to.Scope)
				}
				scopeLadder[from] = appendUnique(scopeLadder[from], s)
			}
			continue
		}
		base, suffix := splitDotted(d.From.Raw)
		switch base {
		case "R", "W", "M":
			from, ok := orderNames[suffix]
			if !ok {
				return errf(d.From.Pos, "demote source %q needs a memory order suffix (want %s)", d.From.Raw, keyList(orderNames))
			}
			for _, tospec := range d.To {
				tbase, tsuffix := splitDotted(tospec.Raw)
				if tbase != base {
					return errf(tospec.Pos, "demote target %q must keep the source base %q", tospec.Raw, base)
				}
				to, ok := orderNames[tsuffix]
				if !ok {
					return errf(tospec.Pos, "demote target %q needs a memory order suffix (want %s)", tospec.Raw, keyList(orderNames))
				}
				for _, k := range kindsOf(base) {
					key := orderKey{k, from}
					orderLadder[key] = appendUnique(orderLadder[key], to)
				}
			}
		case "F":
			from, ok := fenceNames[suffix]
			if !ok {
				return errf(d.From.Pos, "demote source %q needs a fence kind suffix (want %s)", d.From.Raw, keyList(fenceNames))
			}
			for _, tospec := range d.To {
				tbase, tsuffix := splitDotted(tospec.Raw)
				if tbase != "F" {
					return errf(tospec.Pos, "fence demotion target must be an F.<kind>, got %q", tospec.Raw)
				}
				to, ok := fenceNames[tsuffix]
				if !ok {
					return errf(tospec.Pos, "unknown fence kind %q in %q (want %s)", tsuffix, tospec.Raw, keyList(fenceNames))
				}
				fenceLadder[from] = appendUnique(fenceLadder[from], to)
			}
		default:
			return errf(d.From.Pos, "demote source %q must start with R, W, M, F, or @scope", d.From.Raw)
		}
	}

	tags := make(map[string]Pos)
	for _, ref := range f.Relax {
		switch ref.Name {
		case "RI", "RD", "DRMW", "DMO", "DF", "DS":
			tags[ref.Name] = ref.Pos
		default:
			return errf(ref.Pos, "unknown relaxation tag %q (want RI, RD, DRMW, DMO, DF, or DS)", ref.Name)
		}
	}
	// DMO/DF/DS are defined by their demote ladders; a bare tag with no
	// ladder would silently relax nothing, so reject it.
	if pos, ok := tags["DMO"]; ok && len(orderLadder) == 0 {
		return errf(pos, "relax DMO needs at least one `demote R.x -> R.y` order ladder")
	}
	if pos, ok := tags["DF"]; ok && len(fenceLadder) == 0 {
		return errf(pos, "relax DF needs at least one `demote F.x -> F.y` fence ladder")
	}
	if pos, ok := tags["DS"]; ok && len(scopeLadder) == 0 {
		return errf(pos, "relax DS needs at least one `demote @sys -> @wg` scope ladder")
	}
	_, r.prog.relax.RD = tags["RD"]
	_, r.prog.relax.DRMW = tags["DRMW"]
	if len(orderLadder) > 0 {
		r.prog.relax.DemoteOrder = func(e litmus.Event) []litmus.Order {
			return orderLadder[orderKey{e.Kind, e.Order}]
		}
	}
	if len(fenceLadder) > 0 {
		r.prog.relax.DemoteFence = func(e litmus.Event) []litmus.FenceKind {
			return fenceLadder[e.Fence]
		}
	}
	if len(scopeLadder) > 0 {
		r.prog.relax.DemoteScope = func(e litmus.Event) []litmus.Scope {
			return scopeLadder[e.Scope]
		}
	}
	return nil
}

func splitDotted(raw string) (base, suffix string) {
	if dot := strings.IndexByte(raw, '.'); dot >= 0 {
		return raw[:dot], raw[dot+1:]
	}
	return raw, ""
}

func kindsOf(base string) []litmus.Kind {
	switch base {
	case "R":
		return []litmus.Kind{litmus.KRead}
	case "W":
		return []litmus.Kind{litmus.KWrite}
	}
	return []litmus.Kind{litmus.KRead, litmus.KWrite}
}

func appendUnique[T comparable](s []T, v T) []T {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// newEnv builds the lazy evaluation state for one view.
func newEnv(p *program, v *exec.View) *env {
	return &env{
		v:    v,
		done: make([]bool, len(p.lets)),
		rels: make([]relation.Rel, len(p.lets)),
		sets: make([]relation.Set, len(p.lets)),
	}
}
