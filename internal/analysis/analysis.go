// Package analysis is the engine's own static-analysis framework: a
// small, dependency-free reimplementation of the golang.org/x/tools
// go/analysis surface (Analyzer, Pass, positioned Diagnostics) plus a
// package loader built on `go list -export` and the standard library's
// gc export-data importer. It exists because the repository's hard
// invariants — byte-identical suites for any worker/shard/admit
// configuration, and the pooled in-place relation/view discipline of the
// explore hot path — are enforced dynamically by differential tests for
// the configurations CI happens to run, but can be proven over all paths
// by syntax- and type-directed checks (DESIGN.md §16).
//
// Four analyzers ship with the framework:
//
//   - maporder: map iteration order must never reach ordered output
//     (suite bytes, digests, NDJSON streams, HTTP lists)
//     without an intervening sort; deliberate order-independent uses
//     carry a checked //memvet:ordered annotation.
//   - inplacealias: calls to internal/relation's in-place ops must
//     respect each op's documented aliasing contract.
//   - poolescape: pooled exec.View/exec.StaticCtx values must not escape
//     their Reset lifetime outside the packages allowed to own them.
//   - detpath: the digest/normalization/canonical-key call graph must be
//     deterministic — no time.Now, no global math/rand, no fmt verbs
//     over map values.
//
// cmd/memvet is the multichecker-style driver; `make vet` and CI run it
// as a blocking gate.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"memsynth/internal/findings"
)

// An Analyzer describes one static check. Exactly one of Run (invoked
// once per package) or RunModule (invoked once over every loaded
// package, for whole-program properties such as call-graph reachability)
// must be set.
type Analyzer struct {
	// Name is the analyzer's stable identifier: the finding code and the
	// -only selector in cmd/memvet.
	Name string
	// Doc is the one-paragraph description shown by cmd/memvet -help.
	Doc string
	// Run analyzes a single package.
	Run func(*Pass)
	// RunModule analyzes every loaded package at once.
	RunModule func(*ModulePass)
}

// A Pass carries one type-checked package to an analyzer's Run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	report   func(Diagnostic)
}

// A ModulePass carries every loaded package to an analyzer's RunModule.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Packages []*Package
	report   func(Diagnostic)
}

// A Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("memsynth/internal/relation").
	Path string
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types and Info are the go/types results for Files.
	Types *types.Package
	Info  *types.Info
	// Fset positions every file of the load.
	Fset *token.FileSet
	// annotations caches the //memvet: comment scan, per package.
	annotations *AnnotationSet
}

// A Diagnostic is one positioned analyzer finding.
type Diagnostic struct {
	Pos token.Pos
	// Code defaults to the analyzer name when empty.
	Code string
	// Severity defaults to findings.SevError when empty: every memvet
	// finding blocks the gate unless an analyzer explicitly downgrades.
	Severity findings.Severity
	Msg      string
}

// Reportf reports a diagnostic at pos under the pass's analyzer code.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Report reports d, filling the defaults.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf reports a diagnostic at pos under the pass's analyzer code.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Report reports d, filling the defaults.
func (p *ModulePass) Report(d Diagnostic) { p.report(d) }

// A Result is one finished finding: the diagnostic resolved against the
// file set into the shared finding schema.
type Result struct {
	findings.Finding
	// Position is the resolved source position (zero when Pos was NoPos).
	Position token.Position
}

// Run executes the analyzers over pkgs and returns the findings sorted
// by file, line, column, code. Per-package analyzers see each package in
// turn; module analyzers see all of them at once.
func Run(analyzers []*Analyzer, pkgs []*Package) []Result {
	var out []Result
	if len(pkgs) == 0 {
		return out
	}
	fset := pkgs[0].Fset
	collect := func(a *Analyzer) func(Diagnostic) {
		return func(d Diagnostic) {
			f := findings.Finding{
				Code:     d.Code,
				Severity: d.Severity,
				Msg:      d.Msg,
			}
			if f.Code == "" {
				f.Code = a.Name
			}
			if f.Severity == "" {
				f.Severity = findings.SevError
			}
			var pos token.Position
			if d.Pos.IsValid() {
				pos = fset.Position(d.Pos)
				f.File = pos.Filename
				f.Line = pos.Line
				f.Col = pos.Column
			}
			out = append(out, Result{Finding: f, Position: pos})
		}
	}
	for _, a := range analyzers {
		switch {
		case a.Run != nil:
			for _, pkg := range pkgs {
				a.Run(&Pass{Analyzer: a, Fset: fset, Pkg: pkg, report: collect(a)})
			}
		case a.RunModule != nil:
			a.RunModule(&ModulePass{Analyzer: a, Fset: fset, Packages: pkgs, report: collect(a)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Msg < b.Msg
	})
	return out
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{MapOrder, InplaceAlias, PoolEscape, DetPath}
}
