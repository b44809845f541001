package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// execPkg is the package defining the pooled evaluation-context types.
const execPkg = "memsynth/internal/exec"

// pooledTypeNames are the exec types whose values are pooled scratch:
// a View is Reset-stamped across thousands of executions and a StaticCtx
// owns the pooled buffers views point into (DESIGN.md §10). Holding
// either beyond its Reset lifetime aliases live scratch memory.
var pooledTypeNames = map[string]bool{
	"View":      true,
	"StaticCtx": true,
}

// poolOwnerPkgs are the packages allowed to own pooled values — to store
// them in struct fields, return them, or share them with goroutines —
// because they implement the pooling discipline itself: exec mints them,
// minimal/admit/satgen hoist per-worker views out of the per-execution
// path, and cat's evaluation environment memoizes per-view.
var poolOwnerPkgs = map[string]bool{
	"memsynth/internal/exec":         true,
	"memsynth/internal/minimal":      true,
	"memsynth/internal/admit":        true,
	"memsynth/internal/synth/satgen": true,
	"memsynth/internal/cat":          true,
}

// PoolEscape flags pooled exec.View / exec.StaticCtx values escaping
// their Reset lifetime outside the owner packages: stored into a struct
// field or container, captured by or passed to a goroutine, sent on a
// channel, or returned. Within a single synchronous call tree a pooled
// value is safe (it is passed down as an argument everywhere); escapes
// are what let a view outlive the execution it was Reset against, which
// silently reads the next execution's rf/co through stale aliases.
//
// It also flags any use of (*exec.StaticCtx).Rebind outside the owner
// packages, called or taken as a method value, directly or promoted
// through a View: a rebind refills the context's buffers in place, which
// invalidates every view of the context and every StaticMemo value read
// from it, so only the owner of all of them may rebind.
//
// Deliberate exceptions carry //memvet:escapes on the line.
var PoolEscape = &Analyzer{
	Name: "poolescape",
	Doc:  "pooled exec.View/exec.StaticCtx values must not escape their Reset lifetime, nor be rebound, outside owner packages",
	Run:  runPoolEscape,
}

func runPoolEscape(pass *Pass) {
	if poolOwnerPkgs[pass.Pkg.Path] {
		return
	}
	info := pass.Pkg.Info
	annots := pass.Pkg.Annotations()
	report := func(pos token.Pos, format string, args ...any) {
		if a := annots.Lookup(pos, AnnotEscapes); a != nil {
			a.Use()
			return
		}
		pass.Reportf(pos, format, args...)
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for i := range s.Lhs {
					if i >= len(s.Rhs) {
						break // x, y := f() — f's results are checked at the return site
					}
					if !isPooledExpr(info, s.Rhs[i]) {
						continue
					}
					switch ast.Unparen(s.Lhs[i]).(type) {
					case *ast.SelectorExpr:
						report(s.Pos(), "pooled %s stored into a struct field outside its owner packages", pooledName(info, s.Rhs[i]))
					case *ast.IndexExpr:
						report(s.Pos(), "pooled %s stored into a container outside its owner packages", pooledName(info, s.Rhs[i]))
					}
				}
			case *ast.CompositeLit:
				if _, ok := info.TypeOf(s).Underlying().(*types.Struct); !ok {
					return true
				}
				for _, el := range s.Elts {
					v := el
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						v = kv.Value
					}
					if isPooledExpr(info, v) {
						report(v.Pos(), "pooled %s stored into a composite literal outside its owner packages", pooledName(info, v))
					}
				}
			case *ast.ReturnStmt:
				for _, r := range s.Results {
					if isPooledExpr(info, r) {
						report(s.Pos(), "pooled %s returned outside its owner packages", pooledName(info, r))
					}
				}
			case *ast.GoStmt:
				for _, a := range s.Call.Args {
					if isPooledExpr(info, a) {
						report(s.Pos(), "pooled %s passed to a goroutine", pooledName(info, a))
					}
				}
				if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
					reportPooledCaptures(pass, report, lit)
				}
			case *ast.SendStmt:
				if isPooledExpr(info, s.Value) {
					report(s.Pos(), "pooled %s sent on a channel", pooledName(info, s.Value))
				}
			case *ast.SelectorExpr:
				if f, ok := info.Uses[s.Sel].(*types.Func); ok && isRebind(f) {
					report(s.Pos(), "exec.StaticCtx.Rebind outside its owner packages: a rebind invalidates every view of the context")
				}
			}
			return true
		})
	}
}

// reportPooledCaptures flags free variables of pooled type referenced by
// a go'd function literal: the goroutine outlives the caller's Reset
// window.
func reportPooledCaptures(pass *Pass, report func(token.Pos, string, ...any), lit *ast.FuncLit) {
	info := pass.Pkg.Info
	seen := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || seen[obj] || !isPooledType(obj.Type()) {
			return true
		}
		// Free variable iff declared outside the literal.
		if obj.Pos().IsValid() && (obj.Pos() < lit.Pos() || obj.Pos() > lit.End()) {
			seen[obj] = true
			report(id.Pos(), "pooled %s captured by a goroutine closure", obj.Name())
		}
		return true
	})
}

func isPooledExpr(info *types.Info, e ast.Expr) bool {
	return isPooledType(info.TypeOf(e))
}

func isPooledType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, path := namedType(t)
	return named != nil && path == execPkg && pooledTypeNames[named.Obj().Name()]
}

func pooledName(info *types.Info, e ast.Expr) string {
	named, _ := namedType(info.TypeOf(e))
	if named == nil {
		return "value"
	}
	return "exec." + named.Obj().Name()
}

// isRebind reports whether f is the method (*exec.StaticCtx).Rebind.
func isRebind(f *types.Func) bool {
	recv := funcSig(f).Recv()
	if recv == nil || f.Name() != "Rebind" {
		return false
	}
	named, path := namedType(recv.Type())
	return named != nil && path == execPkg && named.Obj().Name() == "StaticCtx"
}
