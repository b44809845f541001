package synth

import (
	"fmt"
	"strings"
)

// The synthesis backends, selected by Options.Backend. Both run the same
// engine and produce byte-identical suites for the same (model, Options);
// they differ only in where the explore phase draws each program's
// candidate executions from, which is why Options.Backend is normalized
// out of store digests.
const (
	// DefaultBackend enumerates every candidate execution (filtered by
	// fast admissibility where the model supports it). It is the backend
	// used when Options.Backend is empty.
	DefaultBackend = "enum"
	// SATBackend draws candidates from the relational minimality query of
	// internal/synth/satgen (the paper's pipeline, Fig. 5c) for the models
	// satgen.Supports, and falls back to DefaultBackend's enumeration for
	// the rest.
	SATBackend = "sat"
)

// Backends returns the backend names, sorted.
func Backends() []string { return []string{DefaultBackend, SATBackend} }

// CheckBackend accepts "" (meaning DefaultBackend) and the names Backends
// returns; the error for any other name lists the known ones.
func CheckBackend(name string) error {
	switch name {
	case "", DefaultBackend, SATBackend:
		return nil
	}
	return fmt.Errorf("synth: unknown backend %q (known: %s)", name, strings.Join(Backends(), ", "))
}
