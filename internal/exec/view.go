package exec

import (
	"fmt"
	"math/bits"
	"strconv"

	"memsynth/internal/litmus"
	"memsynth/internal/relation"
)

// PerturbKind identifies one of the paper's instruction relaxations (§3.2).
type PerturbKind uint8

const (
	// PNone applies no relaxation.
	PNone PerturbKind = iota
	// PRI removes the instruction entirely (Remove Instruction).
	PRI
	// PDMO demotes the memory-ordering annotation of a read or write
	// (Demote Memory Order).
	PDMO
	// PDF demotes a fence to a weaker fence kind (Demote Fence).
	PDF
	// PDRMW decomposes an atomic read-modify-write pair into a plain
	// read/write pair, keeping po_loc and the data dependency
	// (Decompose RMW).
	PDRMW
	// PRD discards all dependencies originating at the instruction
	// (Remove Dependency).
	PRD
	// PDS demotes the synchronization scope of the instruction
	// (Demote Scope).
	PDS
)

func (k PerturbKind) String() string {
	switch k {
	case PNone:
		return "none"
	case PRI:
		return "RI"
	case PDMO:
		return "DMO"
	case PDF:
		return "DF"
	case PDRMW:
		return "DRMW"
	case PRD:
		return "RD"
	case PDS:
		return "DS"
	}
	return fmt.Sprintf("PerturbKind(%d)", uint8(k))
}

// Perturb is the application of one instruction relaxation to one event.
type Perturb struct {
	// Kind selects the relaxation; PNone means no relaxation (Event is
	// ignored).
	Kind PerturbKind
	// Event is the targeted event ID. For PDRMW it is the read of the
	// pair.
	Event int
	// NewOrder is the demoted memory order (PDMO).
	NewOrder litmus.Order
	// NewFence is the demoted fence kind (PDF).
	NewFence litmus.FenceKind
	// NewScope is the demoted scope (PDS).
	NewScope litmus.Scope
}

// NoPerturb is the identity perturbation.
var NoPerturb = Perturb{Kind: PNone}

func (p Perturb) String() string {
	switch p.Kind {
	case PNone:
		return "none"
	case PDMO:
		return fmt.Sprintf("DMO(e%d→%v)", p.Event, p.NewOrder)
	case PDF:
		return fmt.Sprintf("DF(e%d→%v)", p.Event, p.NewFence)
	case PDS:
		return fmt.Sprintf("DS(e%d→%v)", p.Event, p.NewScope)
	default:
		return fmt.Sprintf("%v(e%d)", p.Kind, p.Event)
	}
}

// StaticCtx holds the execution-independent half of a view: every relation
// determined by the (test, perturbation) pair alone — the live set, event
// classes, po, po_loc, sameAddr, ext, rmw, and the dependency relations.
// Computing it once and stamping many executions through it is what makes
// the synthesis explore phase cheap: per execution only rf, co, fr, and
// the RI-orphan set have to be rebuilt (View.Reset). A View embeds its
// context, so the static accessors below serve views too.
//
// A context is pooled: Rebind points it at the next (test, perturbation)
// and refills every relation, and every StaticMemo slot on first use, in
// the buffers the previous binding left, so a worker's contexts stop
// allocating once they have seen its largest program.
//
// A context and its views are not safe for concurrent use; the synthesis
// engine gives each worker its own.
type StaticCtx struct {
	test    *litmus.Test
	perturb Perturb
	binding uint64 // counts Rebind calls; stamps StaticMemo slots

	n    int
	live relation.Set

	reads, writes, fences relation.Set

	po, poLoc relation.Rel
	sameAddr  relation.Rel
	ext       relation.Rel // pairs on different threads
	rmw       relation.Rel
	dep       [3]relation.Rel // indexed by litmus.DepType
	depAll    relation.Rel

	// liveWrites[a] is the set of live writes to address a (the fr targets
	// of an initial read).
	liveWrites []relation.Set
	// byThread and byAddr are Rebind's scratch: the live events of each
	// thread and of each address.
	byThread, byAddr []relation.Set

	staticMemo map[string]*memoSlot // StaticMemo storage
}

// resetSets returns s resized to n empty sets, reusing its storage when it
// has room.
func resetSets(s []relation.Set, n int) []relation.Set {
	if cap(s) < n {
		return make([]relation.Set, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// memoSlot is one StaticMemo value, stamped with the binding it was built
// for.
type memoSlot struct {
	binding uint64
	val     any
}

// NewStaticCtx computes the static relations of test t under perturbation
// p, implementing the execution-independent part of the paper's _p
// relations (Fig. 6). It is a zero context bound by Rebind.
func NewStaticCtx(t *litmus.Test, p Perturb) *StaticCtx {
	c := &StaticCtx{}
	c.Rebind(t, p)
	return c
}

// Rebind points c at test t under perturbation p, recomputing every static
// relation into c's own buffers (reallocating only those too small for
// t) and invalidating every StaticMemo slot. It also invalidates every
// view of c until that view's next Reset, so only the owner of the
// context's views may call it.
func (c *StaticCtx) Rebind(t *litmus.Test, p Perturb) {
	c.test, c.perturb, c.n = t, p, len(t.Events)
	c.binding++
	c.live = relation.UniverseSet(c.n)
	if p.Kind == PRI {
		c.live = c.live.Remove(p.Event)
	}
	for _, r := range [...]*relation.Rel{
		&c.po, &c.poLoc, &c.sameAddr, &c.ext, &c.rmw,
		&c.dep[0], &c.dep[1], &c.dep[2], &c.depAll,
	} {
		r.Resize(c.n)
	}

	// Event classes, and the live events of each thread and address.
	c.reads, c.writes, c.fences = 0, 0, 0
	threads := 0
	for i := range t.Events {
		threads = max(threads, t.Events[i].Thread+1)
	}
	c.byThread = resetSets(c.byThread, threads)
	c.byAddr = resetSets(c.byAddr, t.NumAddrs())
	for m := c.live; m != 0; m &= m - 1 {
		e := &t.Events[bits.TrailingZeros64(uint64(m))]
		switch e.Kind {
		case litmus.KRead:
			c.reads = c.reads.Add(e.ID)
		case litmus.KWrite:
			c.writes = c.writes.Add(e.ID)
		case litmus.KFence:
			c.fences = c.fences.Add(e.ID)
		}
		c.byThread[e.Thread] = c.byThread[e.Thread].Add(e.ID)
		if e.Addr >= 0 {
			c.byAddr[e.Addr] = c.byAddr[e.Addr].Add(e.ID)
		}
	}

	// Program order (transitive), cross-thread pairs and same-address
	// pairs, restricted to live events.
	for m := c.live; m != 0; m &= m - 1 {
		a := &t.Events[bits.TrailingZeros64(uint64(m))]
		thread := c.byThread[a.Thread]
		c.ext.UnionRow(a.ID, c.live.Minus(thread))
		for mb := thread; mb != 0; mb &= mb - 1 {
			if b := &t.Events[bits.TrailingZeros64(uint64(mb))]; a.Index < b.Index {
				c.po.Add(a.ID, b.ID)
			}
		}
		if a.Addr >= 0 {
			c.sameAddr.UnionRow(a.ID, c.byAddr[a.Addr].Remove(a.ID))
		}
	}
	c.poLoc.CopyFrom(c.po)
	c.poLoc.IntersectWith(c.sameAddr)

	// Live writes per address, for the fr edges of initial reads.
	c.liveWrites = resetSets(c.liveWrites, len(c.byAddr))
	for a, evs := range c.byAddr {
		c.liveWrites[a] = evs.Intersect(c.writes)
	}

	// rmw: pairs with both endpoints live; a pair is dissolved by PDRMW on
	// its read and by PRD on its read (removing the data dependency that
	// links the pair — paper Fig. 6 rmw_p).
	for _, pair := range t.RMW {
		r, w := pair[0], pair[1]
		if !c.live.Has(r) || !c.live.Has(w) {
			continue
		}
		if (p.Kind == PDRMW || p.Kind == PRD) && p.Event == r {
			continue
		}
		c.rmw.Add(r, w)
	}

	// Dependencies: explicit deps plus the implicit data dependency of
	// each RMW pair. PRD removes all deps originating at the event. PDRMW
	// keeps the pair's data dependency (paper §3.2: "The po_loc and data
	// dependencies between the load and the store remain in effect").
	addDep := func(d litmus.Dep) {
		if !c.live.Has(d.From) || !c.live.Has(d.To) {
			return
		}
		if p.Kind == PRD && p.Event == d.From {
			return
		}
		c.dep[d.Type].Add(d.From, d.To)
	}
	for _, d := range t.Deps {
		addDep(d)
	}
	for _, pair := range t.RMW {
		addDep(litmus.Dep{From: pair[0], To: pair[1], Type: litmus.DepData})
	}
	for _, d := range c.dep {
		c.depAll.UnionWith(d)
	}
}

// Test returns the underlying litmus test.
func (c *StaticCtx) Test() *litmus.Test { return c.test }

// Perturbation returns the applied perturbation.
func (c *StaticCtx) Perturbation() Perturb { return c.perturb }

// N returns the universe size (all events, live or not).
func (c *StaticCtx) N() int { return c.n }

// Live returns the set of live (non-removed) events.
func (c *StaticCtx) Live() relation.Set { return c.live }

// Reads returns the live read events.
func (c *StaticCtx) Reads() relation.Set { return c.reads }

// Writes returns the live write events.
func (c *StaticCtx) Writes() relation.Set { return c.writes }

// Fences returns the live fence events.
func (c *StaticCtx) Fences() relation.Set { return c.fences }

// LiveWrites returns the live writes to address addr.
func (c *StaticCtx) LiveWrites(addr int) relation.Set { return c.liveWrites[addr] }

// PO returns (perturbed) program order, transitive.
func (c *StaticCtx) PO() relation.Rel { return c.po }

// POLoc returns program order restricted to same-address pairs.
func (c *StaticCtx) POLoc() relation.Rel { return c.poLoc }

// SameAddr returns the symmetric same-address relation over memory events.
func (c *StaticCtx) SameAddr() relation.Rel { return c.sameAddr }

// Ext returns the cross-thread (external) pair relation.
func (c *StaticCtx) Ext() relation.Rel { return c.ext }

// RMW returns the (perturbed) read-modify-write pairing.
func (c *StaticCtx) RMW() relation.Rel { return c.rmw }

// Dep returns the (perturbed) dependency relation of one flavor.
func (c *StaticCtx) Dep(t litmus.DepType) relation.Rel { return c.dep[t] }

// DepAll returns the union of all dependency flavors.
func (c *StaticCtx) DepAll() relation.Rel { return c.depAll }

// StaticMemo caches build's value in the static context: it survives
// View.Reset and is shared by every view of the same (test,
// perturbation). build must depend only on execution-independent state —
// po, dependencies, event classes, effective orders/fences/scopes — never
// on rf, co, fr, orphans, or the sc order.
//
// A slot outlives Rebind but is stamped with the binding it was built
// for: the first lookup after a Rebind calls build again, passing the
// previous binding's value (nil on the slot's first build) so that build
// can refill its buffers in place instead of allocating new ones. A value
// is therefore valid only until the next Rebind.
func (c *StaticCtx) StaticMemo(key string, build func(prev any) any) any {
	slot := c.staticMemo[key]
	if slot != nil && slot.binding == c.binding {
		return slot.val
	}
	if slot == nil {
		if c.staticMemo == nil {
			c.staticMemo = make(map[string]*memoSlot)
		}
		slot = &memoSlot{}
		c.staticMemo[key] = slot
	}
	// Stamped after the build, so a build that panics leaves it stale.
	slot.val = build(slot.val)
	slot.binding = c.binding
	return slot.val
}

// refillRel returns a StaticMemo relation value emptied over n atoms:
// prev's relation when there is one, else a new one.
func refillRel(prev any, n int) *relation.Rel {
	r, _ := prev.(*relation.Rel)
	if r == nil {
		r = new(relation.Rel)
	}
	r.Resize(n)
	return r
}

// OrderOf returns the effective memory order of event id, honoring a PDMO
// perturbation.
func (c *StaticCtx) OrderOf(id int) litmus.Order {
	if c.perturb.Kind == PDMO && c.perturb.Event == id {
		return c.perturb.NewOrder
	}
	return c.test.Events[id].Order
}

// FenceOf returns the effective fence kind of event id, honoring a PDF
// perturbation. Non-fence events return FNone.
func (c *StaticCtx) FenceOf(id int) litmus.FenceKind {
	if c.test.Events[id].Kind != litmus.KFence {
		return litmus.FNone
	}
	if c.perturb.Kind == PDF && c.perturb.Event == id {
		return c.perturb.NewFence
	}
	return c.test.Events[id].Fence
}

// ScopeOf returns the effective scope of event id, honoring a PDS
// perturbation.
func (c *StaticCtx) ScopeOf(id int) litmus.Scope {
	if c.perturb.Kind == PDS && c.perturb.Event == id {
		return c.perturb.NewScope
	}
	return c.test.Events[id].Scope
}

// Where returns the set of live events satisfying pred.
func (c *StaticCtx) Where(pred func(id int) bool) relation.Set {
	var s relation.Set
	for m := c.live; m != 0; m &= m - 1 {
		id := bits.TrailingZeros64(uint64(m))
		if pred(id) {
			s = s.Add(id)
		}
	}
	return s
}

// FencesOfKind returns the live fences whose effective kind is one of ks.
func (c *StaticCtx) FencesOfKind(ks ...litmus.FenceKind) relation.Set {
	return c.Where(func(id int) bool {
		fk := c.FenceOf(id)
		if fk == litmus.FNone {
			return false
		}
		for _, k := range ks {
			if fk == k {
				return true
			}
		}
		return false
	})
}

// fenceRelKeys holds FenceRel's StaticMemo key per set of fence kinds,
// built once so that a warm FenceRel call allocates nothing.
var fenceRelKeys = func() (keys [1 << (litmus.FRel + 1)]string) {
	for mask := range keys {
		keys[mask] = "fencerel:" + strconv.Itoa(mask)
	}
	return keys
}()

// FenceRel returns the ordering induced by fences of the given kinds:
// (po :> F) ; po — every pair of events separated by such a fence in
// program order (paper Fig. 4's fence function), cached in the context.
// The caller must not mutate it.
func (c *StaticCtx) FenceRel(ks ...litmus.FenceKind) relation.Rel {
	var mask int
	for _, k := range ks {
		if k > litmus.FRel {
			panic(fmt.Sprintf("exec: FenceRel of unknown fence kind %v", k))
		}
		mask |= 1 << k
	}
	return *c.StaticMemo(fenceRelKeys[mask], func(prev any) any {
		r := refillRel(prev, c.n)
		r.CopyFrom(c.po)
		r.RestrictIn(c.live, c.FencesOfKind(ks...))
		r.JoinInto(c.po, *r)
		return r
	}).(*relation.Rel)
}

// ScopeCompatible returns the relation containing pairs (a, b) whose scopes
// mutually cover each other's thread: a's effective scope includes b's
// thread and vice versa. Events with ScopeNone cover all threads (non-scoped
// models are unaffected). The result is cached in the context; the caller
// must not mutate it.
func (c *StaticCtx) ScopeCompatible() relation.Rel {
	return *c.StaticMemo("scopecompat", func(prev any) any {
		r := refillRel(prev, c.n)
		covers := func(a, b int) bool {
			switch c.ScopeOf(a) {
			case litmus.ScopeNone, litmus.ScopeSys:
				return true
			case litmus.ScopeWG:
				return c.test.GroupOf(c.test.Events[a].Thread) == c.test.GroupOf(c.test.Events[b].Thread)
			}
			return false
		}
		for ma := c.live; ma != 0; ma &= ma - 1 {
			a := bits.TrailingZeros64(uint64(ma))
			for mb := c.live; mb != 0; mb &= mb - 1 {
				b := bits.TrailingZeros64(uint64(mb))
				if covers(a, b) && covers(b, a) {
					r.Add(a, b)
				}
			}
		}
		return r
	}).(*relation.Rel)
}

// derived relation cache slots of a View (computed lazily per Reset).
const (
	derRFE = iota
	derRFI
	derCOE
	derCOI
	derFRE
	derFRI
	derCom
	derSC
	derCount
)

// View presents the (possibly perturbed) relations of one execution to
// memory-model axioms. The static relations and their accessors come from
// the embedded StaticCtx; the dynamic ones (rf, co, fr, orphans) are
// rebuilt into the view's own scratch buffers by Reset, so one View can
// stamp through thousands of executions without reallocating.
type View struct {
	*StaticCtx
	x *Execution

	rf      relation.Rel
	co      relation.Rel // transitive strict order per address
	fr      relation.Rel
	orphans relation.Set // reads whose rf source was RI'd

	der   [derCount]relation.Rel
	derOK uint16

	memo map[string]any
}

// NewView allocates a view bound to this context, with its own dynamic
// scratch buffers; call Reset to point it at an execution.
func (c *StaticCtx) NewView() *View {
	return &View{
		StaticCtx: c,
		rf:        relation.New(c.n),
		co:        relation.New(c.n),
		fr:        relation.New(c.n),
	}
}

// NewView builds the relational view of execution x under perturbation p.
// It is the convenience constructor for one-shot checks; hot paths build a
// StaticCtx once per (test, perturbation) and Reset a pooled view instead.
func NewView(x *Execution, p Perturb) *View {
	v := NewStaticCtx(x.Test, p).NewView()
	v.Reset(x)
	return v
}

// Reset points v at execution x (which must belong to the context's test),
// rebuilding rf, co, fr, and the orphan set in place and invalidating the
// per-execution caches (derived relations and Memo). x.SC is read lazily
// by SCRel, so resetting after mutating only x.SC is valid and cheap.
func (v *View) Reset(x *Execution) {
	if x.Test != v.test {
		panic("exec: Reset with execution of a different test")
	}
	v.x = x
	v.derOK = 0
	if v.memo != nil {
		clear(v.memo)
	}
	if v.rf.N() != v.n { // the context was rebound to another size
		v.rf.Resize(v.n)
		v.co.Resize(v.n)
		v.fr.Resize(v.n)
	}

	// rf, recording orphaned reads (source removed by RI): such reads are
	// left unconstrained — they contribute neither rf nor fr edges
	// (paper §4.3).
	v.rf.Clear()
	v.orphans = 0
	for m := v.reads; m != 0; m &= m - 1 {
		id := bits.TrailingZeros64(uint64(m))
		src := x.RF[id]
		if src < 0 {
			continue // initial read
		}
		if !v.live.Has(src) {
			v.orphans = v.orphans.Add(id)
			continue
		}
		v.rf.Add(src, id)
	}

	// co: transitive closure of each address order, then restricted to
	// live writes (the repair of Fig. 8 — restriction of the closure
	// preserves order across a removed middle write).
	v.co.Clear()
	for _, ws := range x.CO {
		for i := 0; i < len(ws); i++ {
			if !v.live.Has(ws[i]) {
				continue
			}
			var later relation.Set
			for j := i + 1; j < len(ws); j++ {
				if v.live.Has(ws[j]) {
					later = later.Add(ws[j])
				}
			}
			v.co.UnionRow(ws[i], later)
		}
	}

	// fr: reads-before. A read from write w is fr-before every live write
	// co-after w; an initial read is fr-before every live same-address
	// write. Orphaned reads contribute nothing.
	v.fr.Clear()
	for m := v.reads.Minus(v.orphans); m != 0; m &= m - 1 {
		id := bits.TrailingZeros64(uint64(m))
		src := x.RF[id]
		if src < 0 {
			v.fr.UnionRow(id, v.liveWrites[v.test.Events[id].Addr])
		} else {
			v.fr.UnionRow(id, v.co.Successors(src))
		}
	}
}

// Memo returns the value cached under key, computing and caching it with
// build on first use. Memory models use it to share expensive derived
// relations (e.g. Power's preserved-program-order fixpoint) across the
// axioms evaluated against one view. The cache is invalidated by Reset.
func (v *View) Memo(key string, build func() any) any {
	if v.memo == nil {
		v.memo = make(map[string]any)
	}
	if val, ok := v.memo[key]; ok {
		return val
	}
	val := build()
	v.memo[key] = val
	return val
}

// derived lazily computes cache slot k with build on first use per Reset.
func (v *View) derived(k uint8, build func(dst relation.Rel)) relation.Rel {
	if v.derOK&(1<<k) == 0 {
		if v.der[k].N() != v.n {
			v.der[k].Resize(v.n)
		}
		build(v.der[k])
		v.derOK |= 1 << k
	}
	return v.der[k]
}

// Execution returns the underlying execution.
func (v *View) Execution() *Execution { return v.x }

// Orphans returns the live reads whose rf source was removed; their return
// value is unconstrained.
func (v *View) Orphans() relation.Set { return v.orphans }

// RF returns the (perturbed) reads-from relation.
func (v *View) RF() relation.Rel { return v.rf }

// CO returns the (perturbed) coherence order, transitive.
func (v *View) CO() relation.Rel { return v.co }

// FR returns the (perturbed) from-reads relation.
func (v *View) FR() relation.Rel { return v.fr }

// RFE returns external reads-from (across threads).
func (v *View) RFE() relation.Rel {
	return v.derived(derRFE, func(dst relation.Rel) {
		dst.CopyFrom(v.rf)
		dst.IntersectWith(v.ext)
	})
}

// RFI returns internal reads-from (same thread).
func (v *View) RFI() relation.Rel {
	return v.derived(derRFI, func(dst relation.Rel) {
		dst.CopyFrom(v.rf)
		dst.MinusWith(v.ext)
	})
}

// COE returns external coherence edges.
func (v *View) COE() relation.Rel {
	return v.derived(derCOE, func(dst relation.Rel) {
		dst.CopyFrom(v.co)
		dst.IntersectWith(v.ext)
	})
}

// COI returns internal coherence edges.
func (v *View) COI() relation.Rel {
	return v.derived(derCOI, func(dst relation.Rel) {
		dst.CopyFrom(v.co)
		dst.MinusWith(v.ext)
	})
}

// FRE returns external from-reads edges.
func (v *View) FRE() relation.Rel {
	return v.derived(derFRE, func(dst relation.Rel) {
		dst.CopyFrom(v.fr)
		dst.IntersectWith(v.ext)
	})
}

// FRI returns internal from-reads edges.
func (v *View) FRI() relation.Rel {
	return v.derived(derFRI, func(dst relation.Rel) {
		dst.CopyFrom(v.fr)
		dst.MinusWith(v.ext)
	})
}

// Com returns the communication relation rf ∪ co ∪ fr.
func (v *View) Com() relation.Rel {
	return v.derived(derCom, func(dst relation.Rel) {
		dst.CopyFrom(v.rf)
		dst.UnionWith(v.co)
		dst.UnionWith(v.fr)
	})
}

// SCRel returns the strict total order over live FSC fences induced by the
// execution's SC permutation, honoring DF demotions (a demoted fence leaves
// the order). It is computed once per Reset into a pooled slot, like RFE;
// the caller must not mutate it.
func (v *View) SCRel() relation.Rel {
	return v.derived(derSC, func(dst relation.Rel) {
		dst.Clear()
		sc := v.x.SC
		for i := 0; i < len(sc); i++ {
			if !v.inSCOrder(sc[i]) {
				continue
			}
			for j := i + 1; j < len(sc); j++ {
				if v.inSCOrder(sc[j]) {
					dst.Add(sc[i], sc[j])
				}
			}
		}
	})
}

// inSCOrder reports whether event id takes part in the sc order: a live
// fence whose effective kind is FSC.
func (v *View) inSCOrder(id int) bool {
	return v.live.Has(id) && v.FenceOf(id) == litmus.FSC
}
