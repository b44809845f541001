package memmodel

import (
	"slices"

	"memsynth/internal/exec"
	"memsynth/internal/relation"
)

// StaticBundle returns the static fields of model m's derivation bundle in
// context c — power/armv7/armv8's powerStatic, scc/hsa's sccStatic — or
// nothing for models without one. It reads the bundle's StaticMemo slot,
// refilling it first when it is stale.
func StaticBundle(m Model, c *exec.StaticCtx) (rels []relation.Rel, sets []relation.Set) {
	switch m.Name() {
	case "power", "armv7", "armv8":
		s := powerStaticOf(c, powerVariant(slices.Index(powerKeys[:], m.Name())))
		return []relation.Rel{s.rr, s.rw, s.ww, s.cc0, s.ii0s, s.ci0s, s.ffence, s.fences, s.d.fences, s.d.ffence}, nil
	case "scc", "hsa":
		s := sccStaticOf(c, m.Name() == "hsa")
		return []relation.Rel{s.prefix, s.suffix, s.poRT}, []relation.Set{s.releasers, s.acquirers}
	}
	return nil, nil
}

// RaceEnabled exposes raceEnabled to the external test package.
const RaceEnabled = raceEnabled
