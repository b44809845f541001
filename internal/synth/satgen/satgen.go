// Package satgen is the paper's synthesis pipeline (Fig. 5c), kept as an
// independent check on the synthesis engine: minimal litmus tests fall out
// of a relational model finder instead of exhaustive execution
// enumeration. For each candidate program it compiles a cat definition's
// axioms and the per-program minimality criterion — some
// relaxation-bounded execution is forbidden, and every strictly-weaker
// perturbation of it is observable — into one internal/rml problem over
// internal/sat, and enumerates the satisfying executions with blocking
// clauses on an incrementally-solved instance.
//
// No serving path imports the package; only its tests do. They replay a
// whole synthesis run sequentially — the engine's program generator and
// symmetry dedupe, this package's candidates for every program, each one
// re-confirmed by the minimality checker — and require the replay to
// encode to exactly the engine's stored suites and digest. Supports says
// which definitions compile; Guide proposes one program's candidates.
package satgen

import (
	"fmt"

	"memsynth/internal/cat"
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
)

// maxConflictsPerSolve bounds each incremental solve; a program whose
// encoding turns out pathologically hard is declined, failing the replay
// instead of hanging it. In practice these instances (≤ 8 events) resolve
// in well under a thousand conflicts.
const maxConflictsPerSolve = 100_000

// Supports reports whether definition m compiles to the SAT encoding;
// when it does not, the reason says why. Only sc-order definitions are
// refused: forbidding an outcome under every sc order is not
// quantifier-free.
func Supports(m *cat.Model) (bool, string) {
	if m.Vocab().UsesSC {
		return false, "sc-order total orders over sc fences are not encoded"
	}
	return true, ""
}

// Guide proposes candidate executions for the programs of one model. Each
// program compiles its own solver instance; a Guide is not safe for
// concurrent use.
type Guide struct {
	m   *cat.Model
	def *cat.File
}

// NewGuide returns a guide for definition m, which must satisfy Supports.
// It walks the AST of m's normalized source, which re-parses to the
// definition m was compiled from.
func NewGuide(m *cat.Model) *Guide {
	if ok, reason := Supports(m); !ok {
		panic("satgen: " + reason)
	}
	def, err := cat.Parse(m.Normalized())
	if err != nil {
		panic(fmt.Sprintf("satgen: normalized %s definition does not parse: %v", m.Name(), err))
	}
	return &Guide{m: m, def: def}
}

// Candidates encodes the minimality criterion for t and enumerates the
// satisfying executions, ordered by the rank the exhaustive enumerator
// would visit them in, so first-wins dedupe picks the same
// representatives. The candidates include every minimal (program, outcome)
// witness of t. It returns ok=false to decline the program on an encoding
// or compile failure or an exhausted conflict budget.
func (g *Guide) Candidates(t *litmus.Test) ([]*exec.Execution, bool) {
	enc, err := g.encodeMinimality(t)
	if err != nil {
		return nil, false
	}
	cands, ok := enc.solveAll()
	if ok {
		sortByEnumerationRank(cands, enc)
	}
	return cands, ok
}

// solveAll enumerates every model of the encoding as an execution. It
// returns ok=false on a compile failure or an exhausted conflict budget.
func (enc *progEncoding) solveAll() ([]*exec.Execution, bool) {
	in, err := enc.prob.Compile()
	if err != nil {
		return nil, false
	}
	in.SetMaxConflicts(maxConflictsPerSolve)
	var xs []*exec.Execution
	for {
		m, ok, err := in.Solve()
		if err != nil {
			return nil, false // budget exhausted (or solver error): decline
		}
		if !ok {
			return xs, true
		}
		xs = append(xs, enc.extract(m))
		if !in.Block(m) {
			return xs, true
		}
	}
}
