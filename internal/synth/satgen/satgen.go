// Package satgen is the paper's synthesis pipeline (Fig. 5c), kept as an
// independent check on the synthesis engine: minimal litmus tests fall out
// of a relational model finder instead of exhaustive execution
// enumeration. For each candidate program it encodes the per-program
// minimality criterion — some relaxation-bounded execution is forbidden,
// and every strictly-weaker perturbation of it is observable — as one
// internal/rml problem over internal/sat, and enumerates the satisfying
// executions with blocking clauses on an incrementally-solved instance.
//
// No serving path imports the package; only its tests do. They replay a
// whole synthesis run sequentially — the engine's program generator and
// symmetry dedupe, this package's candidates for every program, each one
// re-confirmed by the minimality checker — and require the replay to
// encode to exactly the engine's stored suites and digest. Supports says
// which models have a native encoding; Guide proposes one program's
// candidates.
package satgen

import (
	"fmt"

	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
)

// maxConflictsPerSolve bounds each incremental solve; a program whose
// encoding turns out pathologically hard is declined, failing the replay
// instead of hanging it. In practice these instances (≤ 8 events) resolve
// in well under a thousand conflicts.
const maxConflictsPerSolve = 100_000

// Supports reports whether model m gets the native SAT encoding; when it
// does not, the reason says what construct forces the fallback to
// exhaustive enumeration. The check is conservative: only built-in Go
// models whose axioms all have registered encoders qualify;
// definition-language models (cat) fall back even under a supported name,
// since a redefinition may change semantics the encoder tables cannot see.
func Supports(m memmodel.Model) (bool, string) {
	if src, _ := memmodel.SourceOf(m); src != "builtin" {
		return false, fmt.Sprintf("%s-defined models are not yet supported by the SAT encoder", src)
	}
	table, ok := encoders[m.Name()]
	if !ok {
		return false, fmt.Sprintf("model %s has no SAT axiom encodings", m.Name())
	}
	if m.Vocab().UsesSC {
		return false, "sc-fence total orders are not yet encoded"
	}
	for _, a := range m.Axioms() {
		if table[a.Name] == nil {
			return false, fmt.Sprintf("axiom %s has no SAT encoding", a.Name)
		}
	}
	return true, ""
}

// Guide proposes candidate executions for the programs of one model. Each
// program compiles its own solver instance; a Guide is not safe for
// concurrent use.
type Guide struct {
	m     memmodel.Model
	table map[string]axiomEncoder
}

// NewGuide returns a guide for model m, which must satisfy Supports.
func NewGuide(m memmodel.Model) *Guide {
	return &Guide{m: m, table: encoders[m.Name()]}
}

// Candidates encodes the minimality criterion for t and enumerates the
// satisfying executions, ordered by the rank the exhaustive enumerator
// would visit them in, so first-wins dedupe picks the same
// representatives. The candidates include every minimal (program, outcome)
// witness of t. It returns ok=false to decline the program on an encoding
// or compile failure or an exhausted conflict budget.
func (g *Guide) Candidates(t *litmus.Test) ([]*exec.Execution, bool) {
	enc, err := encodeProgram(g.m, g.table, t)
	if err != nil {
		return nil, false
	}
	in, err := enc.prob.Compile()
	if err != nil {
		return nil, false
	}
	in.SetMaxConflicts(maxConflictsPerSolve)
	var cands []*exec.Execution
	for {
		m, ok, err := in.Solve()
		if err != nil {
			return nil, false // budget exhausted (or solver error): decline
		}
		if !ok {
			break
		}
		cands = append(cands, enc.extract(m))
		if !in.Block(m) {
			break
		}
	}
	sortByEnumerationRank(cands, enc)
	return cands, true
}
