package admit

import (
	"math/bits"

	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/relation"
)

// ReferenceChecker decides admissibility by the saturation Checker ran
// before it kept its closures incrementally: every fixpoint round rebuilds
// each graph from its static base, the rf edges it includes and every
// forced co and fr edge, and recloses it with CloseIn.
// TestIncrementalSaturationMatchesReference holds Checker to it.
type ReferenceChecker struct {
	c       *Checker     // slots, bound program, order, fco and unionCo
	ffr, cl relation.Rel // forced from-reads edges; per-graph closure
}

// NewReferenceChecker returns a ReferenceChecker for model m, or nil when
// m declares no acyclicity graph.
func NewReferenceChecker(m memmodel.Model) *ReferenceChecker {
	c := NewChecker(m)
	if c == nil {
		return nil
	}
	return &ReferenceChecker{c: c}
}

// Bind is Checker.Bind.
func (r *ReferenceChecker) Bind(t *litmus.Test, apps []exec.Perturb) {
	r.c.Bind(t, apps)
	r.ffr.Resize(r.c.n)
	r.cl.Resize(r.c.n)
}

// Decide is Checker.Decide over the rebuilding saturation.
func (r *ReferenceChecker) Decide(rf []int) bool {
	c := r.c
	c.unionCo.Clear()
	for pos := 0; pos < len(c.order); pos++ {
		ai := c.order[pos]
		if r.saturate(c.appCtxFor(ai), rf) {
			copy(c.order[1:pos+1], c.order[:pos])
			c.order[0] = ai
			return false
		}
		c.unionCo.UnionWith(c.fco)
	}
	if len(c.apps) > 1 && !c.unionCo.Acyclic() {
		return false
	}
	return true
}

// Extends is Checker.Extends against the reference's forced edges.
func (r *ReferenceChecker) Extends(co [][]int) bool { return r.c.Extends(co) }

// UnionCo returns the co edges the last Decide forced across applications.
func (r *ReferenceChecker) UnionCo() relation.Rel { return r.c.unionCo }

func (r *ReferenceChecker) saturate(a *appCtx, rf []int) bool {
	c := r.c
	c.fco.Clear()
	r.ffr.Clear()
	reads, live, ext := a.Reads(), a.Live(), a.Ext()

	for m := reads; m != 0; m &= m - 1 {
		rd := bits.TrailingZeros64(uint64(m))
		if rf[rd] < 0 {
			r.ffr.UnionRow(rd, a.LiveWrites(c.t.Events[rd].Addr))
		}
	}

	for {
		progress := false
		for k, g := range a.graphs {
			r.cl.CopyFrom(c.decls[k].Static(&a.StaticCtx))
			for m := reads; m != 0; m &= m - 1 {
				rd := bits.TrailingZeros64(uint64(m))
				src := rf[rd]
				if src < 0 || !live.Has(src) {
					continue
				}
				if g.rfExternal && !ext.Has(src, rd) {
					continue
				}
				r.cl.Add(src, rd)
			}
			r.cl.UnionWith(c.fco)
			r.cl.UnionWith(r.ffr)
			r.cl.CloseIn()
			if !r.cl.Irreflexive() {
				return true
			}

			for addr := 0; addr < c.nAddrs; addr++ {
				ws := a.LiveWrites(addr)
				if ws.Size() < 2 {
					continue
				}
				for m1 := ws; m1 != 0; m1 &= m1 - 1 {
					w1 := bits.TrailingZeros64(uint64(m1))
					reach := r.cl.Successors(w1).Intersect(ws).Remove(w1)
					for m2 := reach; m2 != 0; m2 &= m2 - 1 {
						ok, p := r.force(a, rf, w1, bits.TrailingZeros64(uint64(m2)))
						if !ok {
							return true
						}
						progress = progress || p
					}
				}
			}

			for m := reads; m != 0; m &= m - 1 {
				rd := bits.TrailingZeros64(uint64(m))
				src := rf[rd]
				if src < 0 || !live.Has(src) {
					continue
				}
				rfInGraph := !g.rfExternal || ext.Has(src, rd)
				for mw := a.LiveWrites(c.t.Events[rd].Addr).Remove(src); mw != 0; mw &= mw - 1 {
					w := bits.TrailingZeros64(uint64(mw))
					if r.cl.Has(w, rd) {
						ok, p := r.force(a, rf, w, src)
						if !ok {
							return true
						}
						progress = progress || p
					}
					if rfInGraph && r.cl.Has(rd, w) {
						ok, p := r.force(a, rf, src, w)
						if !ok {
							return true
						}
						progress = progress || p
					}
				}
			}
		}
		if !progress {
			return false
		}
	}
}

func (r *ReferenceChecker) force(a *appCtx, rf []int, w1, w2 int) (bool, bool) {
	c := r.c
	if c.fco.Has(w1, w2) {
		return true, false
	}
	if c.fco.Has(w2, w1) {
		return false, false
	}
	c.fco.Add(w1, w2)
	for m := a.Reads(); m != 0; m &= m - 1 {
		rd := bits.TrailingZeros64(uint64(m))
		if rf[rd] == w1 {
			r.ffr.Add(rd, w2)
		}
	}
	return true, true
}
