package relation

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	r := New(5)
	if !r.IsEmpty() {
		t.Fatalf("New(5) not empty: %v", r)
	}
	if r.Size() != 0 {
		t.Fatalf("Size = %d, want 0", r.Size())
	}
	if r.N() != 5 {
		t.Fatalf("N = %d, want 5", r.N())
	}
}

func TestAddHasRemove(t *testing.T) {
	r := New(4)
	r.Add(1, 2)
	if !r.Has(1, 2) {
		t.Fatal("Has(1,2) = false after Add")
	}
	if r.Has(2, 1) {
		t.Fatal("Has(2,1) = true, want false")
	}
	r.Remove(1, 2)
	if r.Has(1, 2) {
		t.Fatal("Has(1,2) = true after Remove")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	cases := []func(){
		func() { New(65) },
		func() { New(-1) },
		func() { New(3).Add(3, 0) },
		func() { New(3).Add(0, -1) },
		func() { New(3).Has(5, 0) },
		func() { SetOf(64) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestUnionIntersectMinus(t *testing.T) {
	a := FromPairs(4, [2]int{0, 1}, [2]int{1, 2})
	b := FromPairs(4, [2]int{1, 2}, [2]int{2, 3})
	if got := a.Union(b).Size(); got != 3 {
		t.Errorf("union size = %d, want 3", got)
	}
	if got := a.Intersect(b); !got.Equal(FromPairs(4, [2]int{1, 2})) {
		t.Errorf("intersect = %v", got)
	}
	if got := a.Minus(b); !got.Equal(FromPairs(4, [2]int{0, 1})) {
		t.Errorf("minus = %v", got)
	}
}

func TestJoin(t *testing.T) {
	a := FromPairs(4, [2]int{0, 1}, [2]int{1, 2})
	b := FromPairs(4, [2]int{1, 3}, [2]int{2, 0})
	want := FromPairs(4, [2]int{0, 3}, [2]int{1, 0})
	if got := a.Join(b); !got.Equal(want) {
		t.Errorf("join = %v, want %v", got, want)
	}
}

func TestTranspose(t *testing.T) {
	a := FromPairs(4, [2]int{0, 1}, [2]int{2, 3})
	want := FromPairs(4, [2]int{1, 0}, [2]int{3, 2})
	if got := a.Transpose(); !got.Equal(want) {
		t.Errorf("transpose = %v, want %v", got, want)
	}
}

func TestClosureChain(t *testing.T) {
	a := FromPairs(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3})
	c := a.Closure()
	for _, p := range [][2]int{{0, 2}, {0, 3}, {1, 3}} {
		if !c.Has(p[0], p[1]) {
			t.Errorf("closure missing (%d,%d)", p[0], p[1])
		}
	}
	if c.Has(3, 0) {
		t.Error("closure has spurious (3,0)")
	}
	if !c.Transitive() {
		t.Error("closure not transitive")
	}
}

func TestClosureCycle(t *testing.T) {
	a := FromPairs(3, [2]int{0, 1}, [2]int{1, 0})
	c := a.Closure()
	if !c.Has(0, 0) || !c.Has(1, 1) {
		t.Errorf("cycle closure missing self loops: %v", c)
	}
	if c.Has(2, 2) {
		t.Error("isolated node gained self loop")
	}
}

func TestAcyclic(t *testing.T) {
	if !FromPairs(4, [2]int{0, 1}, [2]int{1, 2}).Acyclic() {
		t.Error("chain reported cyclic")
	}
	if FromPairs(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0}).Acyclic() {
		t.Error("3-cycle reported acyclic")
	}
	if FromPairs(2, [2]int{1, 1}).Acyclic() {
		t.Error("self-loop reported acyclic")
	}
	if !New(0).Acyclic() {
		t.Error("empty universe reported cyclic")
	}
}

func TestIrreflexive(t *testing.T) {
	if !FromPairs(3, [2]int{0, 1}).Irreflexive() {
		t.Error("irreflexive relation misreported")
	}
	if FromPairs(3, [2]int{1, 1}).Irreflexive() {
		t.Error("reflexive pair missed")
	}
}

func TestRestrict(t *testing.T) {
	a := FromPairs(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3})
	got := a.Restrict(SetOf(0, 2), SetOf(1, 3))
	want := FromPairs(4, [2]int{0, 1}, [2]int{2, 3})
	if !got.Equal(want) {
		t.Errorf("restrict = %v, want %v", got, want)
	}
}

func TestCrossAndIdentityOn(t *testing.T) {
	c := Cross(4, SetOf(0, 1), SetOf(2, 3))
	if c.Size() != 4 || !c.Has(0, 2) || !c.Has(1, 3) || c.Has(2, 0) {
		t.Errorf("cross = %v", c)
	}
	id := IdentityOn(4, SetOf(1, 3))
	if id.Size() != 2 || !id.Has(1, 1) || !id.Has(3, 3) || id.Has(0, 0) {
		t.Errorf("identityOn = %v", id)
	}
}

func TestDomainRangeImage(t *testing.T) {
	a := FromPairs(5, [2]int{0, 1}, [2]int{0, 2}, [2]int{3, 4})
	if got := a.Domain(); got != SetOf(0, 3) {
		t.Errorf("domain = %v", got)
	}
	if got := a.Range(); got != SetOf(1, 2, 4) {
		t.Errorf("range = %v", got)
	}
	if got := a.Image(SetOf(0)); got != SetOf(1, 2) {
		t.Errorf("image = %v", got)
	}
}

func TestOptStepAndReflexiveClosure(t *testing.T) {
	a := FromPairs(3, [2]int{0, 1}, [2]int{1, 2})
	opt := a.OptStep()
	if !opt.Has(0, 0) || !opt.Has(0, 1) || opt.Has(0, 2) {
		t.Errorf("optstep = %v", opt)
	}
	rc := a.ReflexiveClosure()
	if !rc.Has(0, 2) || !rc.Has(2, 2) {
		t.Errorf("reflexive closure = %v", rc)
	}
}

func TestString(t *testing.T) {
	a := FromPairs(3, [2]int{2, 0}, [2]int{0, 1})
	if got := a.String(); got != "{(0,1),(2,0)}" {
		t.Errorf("String = %q", got)
	}
	if got := SetOf(1, 3).String(); got != "{1,3}" {
		t.Errorf("Set.String = %q", got)
	}
}

// randomRel draws a relation over n atoms with the given edge probability.
func randomRel(rng *rand.Rand, n int, p float64) Rel {
	r := New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < p {
				r.Add(i, j)
			}
		}
	}
	return r
}

// TestQuickInPlaceMatchesAllocating: every in-place variant must agree
// with its allocating counterpart on random relations.
func TestQuickInPlaceMatchesAllocating(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRel(rng, 10, 0.3)
		b := randomRel(rng, 10, 0.3)
		dst := New(10)

		dst.CopyFrom(a)
		dst.UnionWith(b)
		if !dst.Equal(a.Union(b)) {
			return false
		}
		dst.CopyFrom(a)
		dst.IntersectWith(b)
		if !dst.Equal(a.Intersect(b)) {
			return false
		}
		dst.CopyFrom(a)
		dst.MinusWith(b)
		if !dst.Equal(a.Minus(b)) {
			return false
		}
		a.JoinInto(b, dst)
		if !dst.Equal(a.Join(b)) {
			return false
		}
		// dst may alias the receiver.
		dst.CopyFrom(a)
		dst.JoinInto(b, dst)
		if !dst.Equal(a.Join(b)) {
			return false
		}
		dst.CopyFrom(a)
		dst.CloseIn()
		if !dst.Equal(a.Closure()) {
			return false
		}
		dst.CopyFrom(a)
		dst.ReflexiveCloseIn()
		if !dst.Equal(a.ReflexiveClosure()) {
			return false
		}
		dom := Set(rng.Uint64()).Intersect(UniverseSet(10))
		rng2 := Set(rng.Uint64()).Intersect(UniverseSet(10))
		dst.CopyFrom(a)
		dst.RestrictIn(dom, rng2)
		if !dst.Equal(a.Restrict(dom, rng2)) {
			return false
		}
		dst.CopyFrom(a)
		dst.UnionCross(dom, rng2)
		if !dst.Equal(a.Union(Cross(10, dom, rng2))) {
			return false
		}
		dst.CopyFrom(a)
		dst.MinusCross(dom, rng2)
		if !dst.Equal(a.Minus(Cross(10, dom, rng2))) {
			return false
		}
		dst.Clear()
		return dst.IsEmpty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnionRow(t *testing.T) {
	r := New(5)
	r.Add(0, 1)
	var s Set
	s = s.Add(2).Add(4)
	r.UnionRow(0, s)
	r.UnionRow(3, s)
	want := New(5)
	want.Add(0, 1)
	want.Add(0, 2)
	want.Add(0, 4)
	want.Add(3, 2)
	want.Add(3, 4)
	if !r.Equal(want) {
		t.Errorf("UnionRow result %v, want %v", r, want)
	}
}

// TestResize: a resized relation is empty over its new universe, and
// shrinking then growing within the original capacity reuses the rows.
func TestResize(t *testing.T) {
	r := Full(6)
	rows := &r.rows[0]
	r.Resize(3)
	if r.N() != 3 || !r.IsEmpty() {
		t.Fatalf("Resize(3) = %v over %d atoms, want empty over 3", r, r.N())
	}
	r.Add(2, 1)
	r.Resize(6)
	if r.N() != 6 || !r.IsEmpty() {
		t.Fatalf("Resize(6) = %v over %d atoms, want empty over 6", r, r.N())
	}
	if &r.rows[0] != rows {
		t.Error("Resize within capacity reallocated the rows")
	}
	r.Resize(8)
	if r.N() != 8 || !r.IsEmpty() {
		t.Fatalf("Resize(8) = %v over %d atoms, want empty over 8", r, r.N())
	}
	var z Rel
	z.Resize(4)
	if !z.Equal(New(4)) {
		t.Errorf("zero Rel resized to 4 = %v over %d atoms", z, z.N())
	}
	if allocs := testing.AllocsPerRun(10, func() { r.Resize(5); r.Resize(8) }); allocs != 0 {
		t.Errorf("Resize within capacity allocated %v times", allocs)
	}
}

func TestQuickClosureIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := randomRel(rand.New(rand.NewSource(seed^rng.Int63())), 10, 0.2)
		c := r.Closure()
		return c.Closure().Equal(c) && c.Transitive() && r.SubsetOf(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickAcyclicMatchesClosureIrreflexive: Acyclic must agree with the
// definition (the transitive closure is irreflexive) on random 9-atom
// relations and on every universe size from 0 through MaxUniverse, where
// UniverseSet(64) is the sink peel's edge case. Each size draws random
// DAGs over a shuffled atom order, each as is, with one random edge added
// and with one edge added that closes a cycle. Both outcomes are counted,
// so neither passes vacuously.
func TestQuickAcyclicMatchesClosureIrreflexive(t *testing.T) {
	var acyclic, cyclic int
	check := func(r Rel) bool {
		want := r.Closure().Irreflexive()
		if want {
			acyclic++
		} else {
			cyclic++
		}
		return r.Acyclic() == want
	}
	f := func(seed int64) bool {
		return check(randomRel(rand.New(rand.NewSource(seed)), 9, 0.15))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= MaxUniverse; n++ {
		for draw := 0; draw < 8; draw++ {
			dag := randomDAG(rng, n, rng.Float64()*4/float64(n+1))
			if !check(dag) {
				t.Errorf("n=%d: Acyclic disagrees on DAG %v", n, dag)
			}
			if n == 0 {
				continue
			}
			r := dag.Clone()
			r.Add(rng.Intn(n), rng.Intn(n))
			if !check(r) {
				t.Errorf("n=%d: Acyclic disagrees on %v", n, r)
			}
			// An edge into j from j or from an atom j reaches closes a cycle.
			j := rng.Intn(n)
			reach := dag.Closure().Successors(j).Add(j).Members()
			r = dag.Clone()
			r.Add(reach[rng.Intn(len(reach))], j)
			if !check(r) {
				t.Errorf("n=%d: Acyclic disagrees on %v", n, r)
			}
		}
	}
	if acyclic == 0 || cyclic == 0 {
		t.Errorf("drew %d acyclic and %d cyclic relations; want both outcomes", acyclic, cyclic)
	}
	t.Logf("%d acyclic, %d cyclic relations", acyclic, cyclic)
}

// randomDAG returns a random acyclic relation over n atoms: each pair
// that goes forward in a shuffled atom order is an edge with probability p.
func randomDAG(rng *rand.Rand, n int, p float64) Rel {
	r := New(n)
	perm := rng.Perm(n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() < p {
				r.Add(perm[a], perm[b])
			}
		}
	}
	return r
}

func TestQuickJoinAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRel(rng, 8, 0.3)
		b := randomRel(rng, 8, 0.3)
		c := randomRel(rng, 8, 0.3)
		return a.Join(b).Join(c).Equal(a.Join(b.Join(c)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := randomRel(rand.New(rand.NewSource(seed)), 12, 0.25)
		return r.Transpose().Transpose().Equal(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRel(rng, 8, 0.4)
		b := randomRel(rng, 8, 0.4)
		full := Full(8)
		// full \ (a ∪ b) == (full \ a) ∩ (full \ b)
		lhs := full.Minus(a.Union(b))
		rhs := full.Minus(a).Intersect(full.Minus(b))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickJoinDistributesOverUnion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRel(rng, 8, 0.3)
		b := randomRel(rng, 8, 0.3)
		c := randomRel(rng, 8, 0.3)
		return a.Join(b.Union(c)).Equal(a.Join(b).Union(a.Join(c)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickTransposeJoin(t *testing.T) {
	// ~(a;b) == ~b;~a
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRel(rng, 8, 0.3)
		b := randomRel(rng, 8, 0.3)
		return a.Join(b).Transpose().Equal(b.Transpose().Join(a.Transpose()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickPairsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := randomRel(rand.New(rand.NewSource(seed)), 10, 0.2)
		return FromPairs(10, r.Pairs()...).Equal(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFull(t *testing.T) {
	f := Full(3)
	if f.Size() != 9 {
		t.Errorf("Full(3) size = %d, want 9", f.Size())
	}
	f64 := Full(64)
	if f64.Size() != 64*64 {
		t.Errorf("Full(64) size = %d", f64.Size())
	}
}

func TestUniverseSet(t *testing.T) {
	if UniverseSet(0) != 0 {
		t.Error("UniverseSet(0) not empty")
	}
	if UniverseSet(3) != SetOf(0, 1, 2) {
		t.Errorf("UniverseSet(3) = %v", UniverseSet(3))
	}
	if UniverseSet(64).Size() != 64 {
		t.Errorf("UniverseSet(64) size = %d", UniverseSet(64).Size())
	}
}

func TestSetOps(t *testing.T) {
	s := SetOf(1, 2, 5)
	if !s.Has(2) || s.Has(3) {
		t.Error("Has wrong")
	}
	if s.Remove(2) != SetOf(1, 5) {
		t.Error("Remove wrong")
	}
	if s.Union(SetOf(3)) != SetOf(1, 2, 3, 5) {
		t.Error("Union wrong")
	}
	if s.Intersect(SetOf(2, 3)) != SetOf(2) {
		t.Error("Intersect wrong")
	}
	if s.Minus(SetOf(1)) != SetOf(2, 5) {
		t.Error("Minus wrong")
	}
	if got := s.Members(); len(got) != 3 || got[0] != 1 || got[2] != 5 {
		t.Errorf("Members = %v", got)
	}
}

// TestQuickAddClosedMatchesCloseIn: inserting pairs one at a time into a
// closed relation with AddClosed must give, after every insert, the
// closure CloseIn computes from scratch, and report a cycle exactly when
// the new pair lies on one. Starting from an acyclic relation, the first
// reported cycle is the first insert after which the closure is no longer
// irreflexive. Universes range over 1–64 atoms.
func TestQuickAddClosedMatchesCloseIn(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(MaxUniverse)
		r := randomRel(rng, n, 1.5/float64(n))
		if seed%2 == 0 {
			// Keep only forward pairs: an acyclic start.
			for i := 0; i < n; i++ {
				r.rows[i] &^= uint64(UniverseSet(i + 1))
			}
		}
		r.CloseIn()
		for step := 0; step < 2*n; step++ {
			i, j := rng.Intn(n), rng.Intn(n)
			want := r.Clone()
			want.Add(i, j)
			want.CloseIn()
			wasIrreflexive := r.Irreflexive()
			cyclic := r.AddClosed(i, j)
			if !r.Equal(want) {
				t.Logf("n=%d: AddClosed(%d,%d) = %v, CloseIn = %v", n, i, j, r, want)
				return false
			}
			if cyclic != want.Has(i, i) {
				t.Logf("n=%d: AddClosed(%d,%d) reported cycle %v, closure has (i,i) %v", n, i, j, cyclic, want.Has(i, i))
				return false
			}
			if wasIrreflexive && cyclic == want.Irreflexive() {
				t.Logf("n=%d: AddClosed(%d,%d) reported cycle %v on an acyclic relation, closure irreflexive %v",
					n, i, j, cyclic, want.Irreflexive())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddClosedEdgeCases(t *testing.T) {
	// A self-loop is a cycle on its own.
	r := New(3)
	if !r.AddClosed(1, 1) || !r.Equal(FromPairs(3, [2]int{1, 1})) {
		t.Errorf("self-loop: got %v", r)
	}

	// An edge already present leaves a closed relation unchanged.
	chain := FromPairs(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}).Closure()
	r = chain.Clone()
	if r.AddClosed(0, 2) || !r.Equal(chain) {
		t.Errorf("present edge: got %v, want %v", r, chain)
	}

	// A new edge joins every predecessor of its source to everything its
	// target reaches.
	r = FromPairs(5, [2]int{0, 1}, [2]int{2, 3}, [2]int{3, 4}).Closure()
	if r.AddClosed(1, 2) {
		t.Error("forward edge reported a cycle")
	}
	if want := FromPairs(5, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 4}).Closure(); !r.Equal(want) {
		t.Errorf("forward edge: got %v, want %v", r, want)
	}

	// An edge back to the head of a chain closes a cycle through it.
	r = chain.Clone()
	if !r.AddClosed(3, 0) {
		t.Error("cycle-closing edge not reported")
	}
	if !r.Equal(Full(4)) {
		t.Errorf("cycle-closing edge: got %v, want the full relation", r)
	}
}
