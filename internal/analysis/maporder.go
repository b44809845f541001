package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// MapOrder flags `range` statements over maps whose iteration results
// flow into ordered output without an intervening sort. Go randomizes
// map iteration order per range, so any bytes it reaches — suite text,
// store digests, NDJSON streams, HTTP list responses — differ run to
// run, which breaks the engine's core invariant that suites are
// byte-identical for every configuration.
//
// The check is a function-local taint walk. Inside the loop body the
// range key/value variables seed a taint set that grows through
// assignments — to plain variables and to selector paths like
// resp.Items, so collectors that are struct fields are tracked too. A
// finding fires when taint reaches an emission that cannot be reordered
// after the fact:
//
//   - a fmt print/write call (fmt.Print*, fmt.Fprint*),
//   - a Write/WriteString/WriteByte/WriteRune/Encode/Print*/Log* method
//     call (io.Writer streams, json encoders, string builders),
//   - a channel send,
//   - string concatenation into an outer variable (s += v).
//
// Taint that is merely collected into an outer slice is legal — that is
// the sanctioned sort-after-collect idiom — so collection defers the
// verdict: after the loop the collector's first ordering-relevant use
// decides. A sort.*/slices.Sort* call naming the collector clears it;
// passing it (or, for field collectors, the struct that contains it) to
// any other call, returning it, storing it into a struct field, sending
// it away, or iterating it into an emission flags the range statement —
// the bytes leave the function unsorted. len/cap uses are ignored
// (order-independent), as are writes into map targets: map insertion
// order is unobservable, so building one map from another needs no
// sort.
//
// Deliberately order-independent iterations are silenced with a checked
// //memvet:ordered annotation on the range line (or the line above). The
// annotation must be load-bearing: one that suppresses nothing is itself
// reported, so stale annotations cannot mask future regressions.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "map iteration order must not reach suite output, digests, streams, or list responses unsorted",
	Run:  runMapOrder,
}

// Print-family functions of package fmt that emit directly.
var fmtPrintFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// Method names that emit their arguments in call order.
var sinkMethodNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "EncodeToken": true,
	"Print": true, "Printf": true, "Println": true,
	"Log": true, "Logf": true,
}

func runMapOrder(pass *Pass) {
	annots := pass.Pkg.Annotations()
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if !isMapType(info.TypeOf(rng.X)) {
				return true
			}
			checkMapRange(pass, file, rng, annots)
			return true
		})
	}
	for _, a := range annots.Unused(AnnotOrdered) {
		pass.Reportf(a.Pos, "unused //memvet:ordered annotation: nothing on this line depends on map iteration order")
	}
}

// A taintSet tracks values derived from a map iteration: plain objects
// (variables) and selector paths (struct fields like resp.Items).
type taintSet struct {
	info  *types.Info
	objs  map[types.Object]bool
	paths []ast.Expr // pure selector chains, deduped via sameRef
}

func newTaintSet(info *types.Info) *taintSet {
	return &taintSet{info: info, objs: make(map[types.Object]bool)}
}

func (t *taintSet) addObj(obj types.Object) bool {
	if obj == nil || t.objs[obj] {
		return false
	}
	t.objs[obj] = true
	return true
}

func (t *taintSet) addPath(e ast.Expr) bool {
	for _, p := range t.paths {
		if sameRef(t.info, p, e) {
			return false
		}
	}
	t.paths = append(t.paths, e)
	return true
}

// usedBy reports whether expr mentions any tainted object or selector
// path. Uses nested inside len/cap are ignored: the length of a
// collection does not depend on iteration order.
func (t *taintSet) usedBy(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isLenCap(t.info, call) {
			return false
		}
		switch e := n.(type) {
		case *ast.SelectorExpr:
			for _, p := range t.paths {
				if sameRef(t.info, e, p) {
					found = true
					return false
				}
			}
		case *ast.Ident:
			if obj := t.info.Uses[e]; obj != nil && t.objs[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isPureChain reports whether e is an identifier or a selector chain of
// identifiers (x, x.f, x.f.g).
func isPureChain(e ast.Expr) bool {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return true
		case *ast.SelectorExpr:
			e = v.X
		default:
			return false
		}
	}
}

// chainRoot returns the root identifier's object of a pure chain.
func chainRoot(info *types.Info, e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[v]; obj != nil {
				return obj
			}
			return info.Defs[v]
		case *ast.SelectorExpr:
			e = v.X
		default:
			return nil
		}
	}
}

func checkMapRange(pass *Pass, file *ast.File, rng *ast.RangeStmt, annots *AnnotationSet) {
	info := pass.Pkg.Info
	taint := newTaintSet(info)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				taint.addObj(obj)
			} else if obj := info.Uses[id]; obj != nil {
				taint.addObj(obj) // range with = instead of :=
			}
		}
	}
	if len(taint.objs) == 0 {
		return
	}
	propagateTaint(info, rng.Body, taint)

	report := func(sinkPos token.Pos, what string) {
		if a := annots.Lookup(rng.Pos(), AnnotOrdered); a != nil {
			a.Use()
			return
		}
		pass.Reportf(rng.Pos(), "map iteration order reaches %s (at %s); sort the collected data first or annotate //memvet:ordered",
			what, pass.Fset.Position(sinkPos))
	}

	// In-loop emissions: these stream bytes out in iteration order and
	// cannot be fixed up afterwards.
	if pos, what, bad := findEmission(info, rng.Body, rng.Pos(), taint); bad {
		report(pos, what)
		return
	}

	// Deferred verdicts: outer collectors of slice type. Their first
	// ordering-relevant use after the loop decides.
	// Iterate collectors in a deterministic order (by declaration
	// position) so finding order is stable.
	var objs []types.Object
	for obj := range taint.objs {
		if isSliceType(obj.Type()) && declaredBefore(obj, rng.Pos()) {
			objs = append(objs, obj)
		}
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
	for _, obj := range objs {
		if pos, what, bad := collectorEscapes(pass, file, rng, obj, nil); bad {
			report(pos, what)
			return
		}
	}
	for _, p := range taint.paths {
		root := chainRoot(info, p)
		if root == nil || !isSliceType(info.TypeOf(p)) || !declaredBefore(root, rng.Pos()) {
			continue
		}
		if pos, what, bad := collectorEscapes(pass, file, rng, root, p); bad {
			report(pos, what)
			return
		}
	}
}

// propagateTaint grows taint through the assignments of body to a
// fixpoint. Identifier targets taint their object; selector targets
// (resp.Items = append(resp.Items, v)) taint the selector path. Index
// targets are ignored: writes into maps are order-unobservable, and
// writes into slice cells at deterministic indices carry no order.
func propagateTaint(info *types.Info, body *ast.BlockStmt, taint *taintSet) {
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			rhsTainted := false
			for _, r := range as.Rhs {
				if taint.usedBy(r) {
					rhsTainted = true
					break
				}
			}
			if !rhsTainted {
				return true
			}
			for _, l := range as.Lhs {
				switch lhs := ast.Unparen(l).(type) {
				case *ast.Ident:
					if lhs.Name == "_" {
						continue
					}
					obj := info.Defs[lhs]
					if obj == nil {
						obj = info.Uses[lhs]
					}
					if taint.addObj(obj) {
						changed = true
					}
				case *ast.SelectorExpr:
					if isPureChain(lhs) && taint.addPath(lhs) {
						changed = true
					}
				}
			}
			return true
		})
	}
}

// findEmission scans body for the first statement that streams tainted
// data out in iteration order. loopPos is the governing range position
// (used to distinguish outer accumulators from loop-locals).
func findEmission(info *types.Info, body *ast.BlockStmt, loopPos token.Pos, taint *taintSet) (token.Pos, string, bool) {
	var pos token.Pos
	var what string
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch s := n.(type) {
		case *ast.CallExpr:
			if w, bad := isEmissionCall(info, s, taint); bad {
				pos, what, found = s.Pos(), w, true
			}
		case *ast.SendStmt:
			if taint.usedBy(s.Value) {
				pos, what, found = s.Pos(), "a channel send", true
			}
		case *ast.AssignStmt:
			// s += tainted on an outer string accumulates order.
			if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 &&
				isStringType(info.TypeOf(s.Lhs[0])) &&
				taint.usedBy(s.Rhs[0]) {
				if obj := lhsObject(info, s.Lhs[0]); obj != nil && declaredBefore(obj, loopPos) {
					pos, what, found = s.Pos(), "string concatenation into an outer variable", true
				}
			}
		}
		return !found
	})
	return pos, what, found
}

// isEmissionCall reports whether call emits a tainted argument: a fmt
// print function or a sink-named method with taint in its arguments.
func isEmissionCall(info *types.Info, call *ast.CallExpr, taint *taintSet) (string, bool) {
	argTainted := func() bool {
		for _, a := range call.Args {
			if taint.usedBy(a) {
				return true
			}
		}
		return false
	}
	if f := calleeFunc(info, call); f != nil && f.Pkg() != nil && f.Pkg().Path() == "fmt" && fmtPrintFuncs[f.Name()] {
		if argTainted() {
			return "fmt output", true
		}
		return "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !sinkMethodNames[sel.Sel.Name] {
		return "", false
	}
	if f, ok := info.Uses[sel.Sel].(*types.Func); ok && funcSig(f).Recv() != nil && argTainted() {
		return "a " + sel.Sel.Name + " call", true
	}
	return "", false
}

// collectorUse classifies how an expression relates to a collector.
type collectorUse int

const (
	useNone collectorUse = iota
	// useExact: the expression names the collector itself (keys, or the
	// full path resp.Items).
	useExact
	// useRoot: a field collector's root struct is referenced whole
	// (passing resp passes resp.Items). References to a *different*
	// field of the same root do not count.
	useRoot
)

// collectorUseIn finds the strongest use of the collector inside expr.
// collector is the tracked expression; rootObj its root object; path is
// non-nil for field collectors.
func collectorUseIn(info *types.Info, expr ast.Expr, rootObj types.Object, path ast.Expr) collectorUse {
	use := useNone
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if use == useExact || n == nil {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isLenCap(info, call) {
			return false
		}
		if e, ok := n.(ast.Expr); ok && isPureChain(e) {
			switch {
			case path != nil && sameRef(info, e, path):
				use = useExact
			case path == nil:
				if id, ok := ast.Unparen(e).(*ast.Ident); ok && info.Uses[id] == rootObj {
					use = useExact
				}
			case chainRoot(info, e) == rootObj:
				// Same root. The bare root escapes the whole struct;
				// a different field of it is unrelated.
				if _, isIdent := ast.Unparen(e).(*ast.Ident); isIdent && use == useNone {
					use = useRoot
				}
			}
			return false // pure chains are atomic: don't double-count the root
		}
		return true
	}
	ast.Inspect(expr, walk)
	return use
}

// collectorEscapes scans the statements after rng in the enclosing
// function for the first ordering-relevant use of the collector: a sort
// call naming it clears it, anything that moves it along (call
// argument, return, field store, channel send, emitting iteration)
// flags it.
func collectorEscapes(pass *Pass, file *ast.File, rng *ast.RangeStmt, rootObj types.Object, path ast.Expr) (token.Pos, string, bool) {
	info := pass.Pkg.Info
	fn := enclosingFuncBody(file, rng.Pos())
	if fn == nil {
		return token.NoPos, "", false
	}
	useIn := func(e ast.Expr) collectorUse { return collectorUseIn(info, e, rootObj, path) }
	var pos token.Pos
	var what string
	bad, decided := false, false
	flag := func(p token.Pos, w string) {
		decided, bad, pos, what = true, true, p, w
	}
	ast.Inspect(fn, func(n ast.Node) bool {
		if decided || n == nil {
			return false
		}
		// Descend through nodes that start before the loop ends (they may
		// contain post-loop statements) but only match nodes entirely
		// after it. Inspect visits statements in source order, so the
		// first match is the first use.
		if n.Pos() < rng.End() {
			return true
		}
		switch s := n.(type) {
		case *ast.RangeStmt:
			if useIn(s.X) == useNone {
				return true
			}
			// Iterating the unsorted collector re-runs the original
			// question one level down: flag only if the body emits.
			sub := newTaintSet(info)
			for _, e := range []ast.Expr{s.Key, s.Value} {
				if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
					if obj := info.Defs[id]; obj != nil {
						sub.addObj(obj)
					}
				}
			}
			propagateTaint(info, s.Body, sub)
			if p, w, emits := findEmission(info, s.Body, s.Pos(), sub); emits {
				flag(p, w+" while iterating the unsorted collected slice")
				return false
			}
			decided = true // consumed without emitting: out of scope
			return false
		case *ast.CallExpr:
			switch useIn(s) {
			case useNone:
				return true
			case useExact:
				if isSortCall(info, s) {
					decided = true // sorted: clean
					return false
				}
				flag(s.Pos(), "a call with the collected slice")
			case useRoot:
				if !isSortCall(info, s) {
					flag(s.Pos(), "a call with the struct holding the collected slice")
				}
			}
			return false
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				if useIn(r) != useNone {
					flag(s.Pos(), "a return of the collected slice")
					return false
				}
			}
		case *ast.AssignStmt:
			for i, l := range s.Lhs {
				if _, ok := ast.Unparen(l).(*ast.SelectorExpr); ok && i < len(s.Rhs) &&
					useIn(s.Rhs[i]) != useNone {
					flag(s.Pos(), "a struct field store of the collected slice")
					return false
				}
			}
		case *ast.SendStmt:
			if useIn(s.Value) != useNone {
				flag(s.Pos(), "a channel send of the collected slice")
				return false
			}
		}
		return true
	})
	return pos, what, bad
}

// isSortCall recognizes the sort vocabulary: package sort and slices
// functions whose name is Sort* or a sort.X convenience (Strings, Ints,
// ...), plus the sort.Sort/sort.Stable interface forms.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil || funcSig(f).Recv() != nil {
		return false
	}
	switch f.Pkg().Path() {
	case "sort":
		switch f.Name() {
		case "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s":
			return true
		}
	case "slices":
		switch f.Name() {
		case "Sort", "SortFunc", "SortStableFunc":
			return true
		}
	}
	return false
}

func isLenCap(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name() == "len" || b.Name() == "cap"
	}
	return false
}

func lhsObject(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// declaredBefore reports whether obj was declared before pos — i.e. it
// outlives the loop body it is assigned in.
func declaredBefore(obj types.Object, pos token.Pos) bool {
	return obj.Pos().IsValid() && obj.Pos() < pos
}

// enclosingFuncBody returns the body of the innermost function
// declaration or literal containing pos.
func enclosingFuncBody(file *ast.File, pos token.Pos) *ast.BlockStmt {
	var best *ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil || n.Pos() > pos || n.End() <= pos {
			return n == file
		}
		switch fn := n.(type) {
		case *ast.FuncDecl:
			best = fn.Body
		case *ast.FuncLit:
			best = fn.Body
		}
		return true
	})
	return best
}
