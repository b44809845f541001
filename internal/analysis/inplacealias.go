package analysis

import (
	"go/ast"
	"go/types"
)

// relationPkg is the package whose in-place operations carry aliasing
// contracts. Fixture stubs use the same import path, so analysistest
// exercises the real tables.
const relationPkg = "memsynth/internal/relation"

// aliasContract is one in-place operation's documented aliasing rule,
// encoded as operand index pairs that must not refer to the same
// underlying rows. Index -1 is the receiver; 0.. are call arguments.
//
// The table mirrors the doc comments in internal/relation:
//
//	JoinInto(s, dst): "dst may alias r but must not alias s" — dst rows
//	  are written while s rows are still being read, so dst==s corrupts
//	  the join. dst==receiver is explicitly allowed (row i is consumed
//	  before it is overwritten), which the checker must NOT flag.
//	UnionWith/IntersectWith/CopyFrom(s): element-wise, so aliasing is
//	  memory-safe but r op= r is always a no-op — a bug in intent, since
//	  pooled-buffer code that unions a relation with itself almost
//	  certainly meant a different operand.
//	MinusWith(s): r \= r zeroes r; the intended spelling is Clear().
//	RestrictIn/UnionCross/MinusCross(dom, rng): Set operands are value
//	  bitsets — no contract. Resize takes only a size — no contract.
//
// Rel is a value struct sharing its rows slice, so "same reference
// chain" (sameRef) is the aliasing witness: two syntactically identical
// chains denote the same rows. Distinct variables that share rows via
// earlier assignments are out of scope for this definite-alias checker.
type aliasContract struct {
	method string
	pairs  [][2]int
	reason string
}

var relationContracts = map[string][]aliasContract{
	"JoinInto": {{
		method: "JoinInto",
		pairs:  [][2]int{{0, 1}},
		reason: "dst must not alias s: dst rows are written while s rows are still read (dst may alias the receiver)",
	}},
	"UnionWith": {{
		method: "UnionWith",
		pairs:  [][2]int{{-1, 0}},
		reason: "r.UnionWith(r) is a no-op; the operand is almost certainly wrong",
	}},
	"IntersectWith": {{
		method: "IntersectWith",
		pairs:  [][2]int{{-1, 0}},
		reason: "r.IntersectWith(r) is a no-op; the operand is almost certainly wrong",
	}},
	"MinusWith": {{
		method: "MinusWith",
		pairs:  [][2]int{{-1, 0}},
		reason: "r.MinusWith(r) zeroes r; spell it Clear()",
	}},
	"CopyFrom": {{
		method: "CopyFrom",
		pairs:  [][2]int{{-1, 0}},
		reason: "r.CopyFrom(r) is a no-op; the operand is almost certainly wrong",
	}},
}

// InplaceAlias checks calls to internal/relation's in-place operations
// against the aliasing-contract table above. Intentional aliasing (none
// is known today) is silenced with //memvet:aliasok on the call line.
var InplaceAlias = &Analyzer{
	Name: "inplacealias",
	Doc:  "in-place relation operations must respect their documented aliasing contracts",
	Run:  runInplaceAlias,
}

func runInplaceAlias(pass *Pass) {
	info := pass.Pkg.Info
	annots := pass.Pkg.Annotations()
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			contracts, ok := relationContracts[sel.Sel.Name]
			if !ok {
				return true
			}
			f, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || funcSig(f).Recv() == nil {
				return true
			}
			named, path := namedType(funcSig(f).Recv().Type())
			if named == nil || path != relationPkg || named.Obj().Name() != "Rel" {
				return true
			}
			operand := func(i int) ast.Expr {
				if i == -1 {
					return sel.X
				}
				if i < len(call.Args) {
					return call.Args[i]
				}
				return nil
			}
			for _, c := range contracts {
				for _, p := range c.pairs {
					a, b := operand(p[0]), operand(p[1])
					if a == nil || b == nil || !sameRef(info, a, b) {
						continue
					}
					if an := annots.Lookup(call.Pos(), AnnotAliasOK); an != nil {
						an.Use()
						continue
					}
					pass.Reportf(call.Pos(), "aliasing violation in %s.%s: %s",
						types.ExprString(sel.X), sel.Sel.Name, c.reason)
				}
			}
			return true
		})
	}
}
